// Package geo models the physical geography underneath the sky: great-circle
// distances between clients and cloud regions, and the round-trip network
// latency the smart routing system must trade off against faster hardware
// (§3.4's client–region distance heuristic).
package geo

import (
	"math"
	"time"
)

// Coord is a WGS84 latitude/longitude pair in degrees.
type Coord struct {
	Lat float64
	Lon float64
}

// earthRadiusKM is the mean Earth radius.
const earthRadiusKM = 6371.0

// Haversine returns the great-circle distance between a and b in kilometres.
func Haversine(a, b Coord) float64 {
	const deg = math.Pi / 180
	dLat := (b.Lat - a.Lat) * deg
	dLon := (b.Lon - a.Lon) * deg
	lat1 := a.Lat * deg
	lat2 := b.Lat * deg
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKM * math.Asin(math.Min(1, math.Sqrt(h)))
}

// LatencyModel converts distance into request round-trip time. The defaults
// follow the usual fibre rule of thumb (~1 ms RTT per 100 km along the great
// circle, inflated for real routing) plus a fixed termination overhead.
type LatencyModel struct {
	// OverheadMS is the distance-independent RTT floor (TLS termination,
	// front-end routing, last-mile).
	OverheadMS float64
	// MSPerKM is RTT milliseconds added per great-circle kilometre.
	MSPerKM float64
	// PathInflation multiplies the great-circle distance to account for
	// non-geodesic fibre paths.
	PathInflation float64
}

// DefaultLatencyModel returns the model used throughout the experiments.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		OverheadMS:    8,
		MSPerKM:       0.01,
		PathInflation: 1.3,
	}
}

// BaseRTT returns the round trip between two coordinates.
func (m LatencyModel) BaseRTT(a, b Coord) time.Duration {
	km := Haversine(a, b) * m.PathInflation
	ms := m.OverheadMS + m.MSPerKM*km
	return time.Duration(ms * float64(time.Millisecond))
}

// Cities provides client vantage points for experiments and examples.
var Cities = map[string]Coord{
	"seattle":   {47.61, -122.33},
	"new-york":  {40.71, -74.01},
	"london":    {51.51, -0.13},
	"frankfurt": {50.11, 8.68},
	"tokyo":     {35.68, 139.69},
	"sydney":    {-33.87, 151.21},
	"sao-paulo": {-23.55, -46.63},
	"mumbai":    {19.08, 72.88},
}

// City returns a named vantage point; ok is false for unknown names.
func City(name string) (Coord, bool) {
	c, ok := Cities[name]
	return c, ok
}
