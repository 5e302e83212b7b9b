// Package trace records every simulated invocation as a JSON-lines stream —
// the "data sets" counterpart to the figure CSVs. Attach a Recorder to the
// cloud via cloudsim.Options.OnResponse and every response (successes,
// throttles, probe declines) becomes one line suitable for jq/pandas.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"skyfaas/internal/cloudsim"
)

// Record is one invocation's trace line.
type Record struct {
	// Time is the virtual handler end (a probe's decision, for a decline),
	// or the send time of a request that never ran.
	Time     time.Time `json:"time"`
	AZ       string    `json:"az"`
	Function string    `json:"function"`
	Account  string    `json:"account"`
	FI       string    `json:"fi,omitempty"`
	Host     string    `json:"host,omitempty"`
	CPU      string    `json:"cpu,omitempty"`
	Cold     bool      `json:"cold,omitempty"`
	Declined bool      `json:"declined,omitempty"`
	BilledMS float64   `json:"billedMS,omitempty"`
	CostUSD  float64   `json:"costUSD,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Recorder serializes records to a writer. It is safe for concurrent use:
// the simulation delivers responses one at a time, but a paced skyd run can
// drain traces while HTTP handlers read Count/Err from other goroutines, so
// every field is guarded by one mutex.
type Recorder struct {
	mu  sync.Mutex
	enc *json.Encoder // guarded by mu
	n   int           // guarded by mu
	err error         // guarded by mu
}

// NewRecorder writes JSON lines to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{enc: json.NewEncoder(w)}
}

// Hook returns the cloudsim.Options.OnResponse adapter.
func (r *Recorder) Hook() func(cloudsim.Request, cloudsim.Response) {
	return func(req cloudsim.Request, resp cloudsim.Response) {
		rec := Record{
			Time:     resp.Ended,
			AZ:       req.AZ,
			Function: req.Function,
			Account:  req.Account,
			Host:     resp.Host,
			Cold:     resp.Cold,
			BilledMS: resp.BilledMS,
			CostUSD:  resp.CostUSD,
		}
		if rec.Time.IsZero() {
			rec.Time = resp.Sent
		}
		if n := resp.Profile.Instance; n != 0 {
			rec.FI = string(cloudsim.AppendInstanceID(nil, req.AZ, n))
		}
		if resp.CPU.Valid() {
			rec.CPU = resp.CPU.String()
		}
		if out, ok := resp.Value.(cloudsim.ProbeOutcome); ok && !out.Ran {
			rec.Declined = true
		}
		if resp.Err != nil {
			rec.Error = resp.Err.Error()
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if err := r.enc.Encode(rec); err != nil && r.err == nil {
			r.err = fmt.Errorf("trace: %w", err)
		}
		r.n++
	}
}

// Count returns the number of records written.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
