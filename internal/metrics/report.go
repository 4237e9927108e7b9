package metrics

import "cxlpool/internal/report"

// CounterSet → report bridges: the ordered counters the cluster and
// orchestration layers accumulate feed structured reports directly,
// preserving first-Add order so the emitted JSON/CSV is deterministic.

// AppendScalars records every counter as a report scalar named
// prefix+name, in first-Add order.
func (s *CounterSet) AppendScalars(r *report.Report, prefix string) {
	for _, n := range s.names {
		r.AddScalar(prefix+n, float64(s.vals[n]), "")
	}
}
