package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name   string
		a, b   string
		wantKM float64
		tolKM  float64
	}{
		{"seattle-newyork", "seattle", "new-york", 3870, 100},
		{"london-frankfurt", "london", "frankfurt", 640, 40},
		{"tokyo-sydney", "tokyo", "sydney", 7820, 150},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, _ := City(tt.a)
			b, _ := City(tt.b)
			got := Haversine(a, b)
			if got < tt.wantKM-tt.tolKM || got > tt.wantKM+tt.tolKM {
				t.Fatalf("distance = %.0f km, want %.0f±%.0f", got, tt.wantKM, tt.tolKM)
			}
		})
	}
}

func TestHaversineProperties(t *testing.T) {
	if err := quick.Check(func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{Lat: wrapLat(lat1), Lon: wrapLon(lon1)}
		b := Coord{Lat: wrapLat(lat2), Lon: wrapLon(lon2)}
		d1 := Haversine(a, b)
		d2 := Haversine(b, a)
		// Symmetric, non-negative, bounded by half the circumference.
		return d1 >= 0 && d1 == d2 && d1 <= 20100
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func wrapLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func wrapLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func TestHaversineZero(t *testing.T) {
	c := Coord{Lat: 10, Lon: 20}
	if d := Haversine(c, c); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestBaseRTTMonotoneWithDistance(t *testing.T) {
	m := DefaultLatencyModel()
	sea, _ := City("seattle")
	ny, _ := City("new-york")
	syd, _ := City("sydney")
	near := m.BaseRTT(sea, ny)
	far := m.BaseRTT(sea, syd)
	if near >= far {
		t.Fatalf("near RTT %v >= far RTT %v", near, far)
	}
	if near < 8*time.Millisecond {
		t.Fatalf("RTT below fixed overhead: %v", near)
	}
}

func TestCityLookup(t *testing.T) {
	if _, ok := City("seattle"); !ok {
		t.Fatal("seattle missing")
	}
	if _, ok := City("atlantis"); ok {
		t.Fatal("atlantis found")
	}
}
