package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SeriesSnapshot is one labeled series in a registry snapshot. Value holds
// counter/gauge readings; Histogram is set for histogram series.
type SeriesSnapshot struct {
	Labels    []Label       `json:"labels,omitempty"`
	Value     float64       `json:"value,omitempty"`
	Histogram *HistSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one metric family in a registry snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   Kind             `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time view of an entire registry.
type Snapshot struct {
	Metrics []FamilySnapshot `json:"metrics"`
}

// Snapshot captures every family and series. Families are sorted by name
// and series keep first-registration order, so output is deterministic for
// a deterministic program. Safe concurrently with writers.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := Snapshot{Metrics: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind}
		f.mu.RLock()
		for _, key := range f.ordered {
			e := f.series[key]
			ss := SeriesSnapshot{Labels: e.labels}
			switch s := e.handle.(type) {
			case *Counter:
				ss.Value = float64(s.Value())
			case *Gauge:
				ss.Value = s.Value()
			case *Histogram:
				h := s.Snapshot()
				ss.Histogram = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		snap.Metrics = append(snap.Metrics, fs)
	}
	return snap
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WriteJSON renders the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders the snapshot in the Prometheus text format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, fam := range s.Metrics {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Type); err != nil {
			return err
		}
		for _, series := range fam.Series {
			if err := writeSeries(w, fam, series); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fam FamilySnapshot, s SeriesSnapshot) error {
	if fam.Type != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, labelBlock(s.Labels, "", ""), formatFloat(s.Value))
		return err
	}
	h := s.Histogram
	if h == nil {
		return nil
	}
	for _, b := range h.Buckets {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, labelBlock(s.Labels, "le", le), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, labelBlock(s.Labels, "", ""), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, labelBlock(s.Labels, "", ""), h.Count)
	return err
}

// labelBlock renders {k="v",...}, optionally appending one extra pair (the
// histogram "le"), or "" when there are no labels at all.
func labelBlock(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }
