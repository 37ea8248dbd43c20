// Aggregation over a recorded textrace: per-track utilization, per-phase
// span statistics, the run's critical path, and a straggler report. It
// is most meaningful for traces recorded on a WallClock; it is pure
// read-side analysis and never feeds back into simulation output. Its
// per-phase table is also the run manifest's "phases" list.
package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// TrackUtil is one track's share of the run: busy nanoseconds summed
// over its closed top-level spans, against the whole run's extent.
type TrackUtil struct {
	Name        string
	Spans       int
	BusyNS      int64
	Utilization float64
}

// PhaseStat aggregates every closed span with one name across all
// tracks.
type PhaseStat struct {
	Name     string `json:"name"`
	Count    int    `json:"count"`
	TotalNS  int64  `json:"total_ns"`
	MeanNS   int64  `json:"mean_ns"`
	MaxNS    int64  `json:"max_ns"`
	MaxTrack string `json:"max_track"`
	// PctOfRun is TotalNS over the run extent; above 1 means the phase
	// ran concurrently on several tracks.
	PctOfRun float64 `json:"pct_of_run"`
}

// CriticalStep is one span on the run's critical path.
type CriticalStep struct {
	Track   string
	Name    string
	Seq     int64
	StartNS int64
	DurNS   int64
}

// Straggler is a span that ran disproportionately long against its
// phase's median.
type Straggler struct {
	Phase  string
	Track  string
	Seq    int64
	DurNS  int64
	Median int64
	Ratio  float64
}

// TraceReport is the aggregation of one recorded run.
type TraceReport struct {
	// DurationNS is the run extent: latest event end minus earliest
	// event start.
	DurationNS int64
	Tracks     []TrackUtil
	Phases     []PhaseStat
	// Critical is a dependency-free critical path estimate: walking
	// backward from the last-ending span, each step is the
	// latest-ending span that ended at or before the current one
	// started. CriticalNS sums its durations.
	Critical   []CriticalStep
	CriticalNS int64
	Stragglers []Straggler
}

// reportSpan is one closed span with its physical track attached.
type reportSpan struct {
	track string
	ev    traceEvent
}

// Report aggregates the trace's recording. Nil trace, nil report.
func (t *Trace) Report() *TraceReport {
	if t == nil {
		return nil
	}
	rep := &TraceReport{}
	var spans []reportSpan
	var lo, hi int64
	seen := false
	for _, k := range t.snapshotTracks() {
		events := k.snapshotEvents()
		busy := int64(0)
		closed := 0
		for _, ev := range events {
			if !seen || ev.start < lo {
				lo = ev.start
			}
			end := ev.start + ev.dur
			if ev.dur < 0 {
				end = ev.start
			}
			if !seen || end > hi {
				hi = end
			}
			seen = true
			if ev.dur < 0 {
				continue
			}
			closed++
			if ev.depth == 0 {
				busy += ev.dur
			}
			spans = append(spans, reportSpan{track: k.name, ev: ev})
		}
		if len(events) > 0 {
			rep.Tracks = append(rep.Tracks, TrackUtil{
				Name: k.name, Spans: closed, BusyNS: busy,
			})
		}
	}
	if seen {
		rep.DurationNS = hi - lo
	}
	if rep.DurationNS > 0 {
		for i := range rep.Tracks {
			rep.Tracks[i].Utilization =
				float64(rep.Tracks[i].BusyNS) / float64(rep.DurationNS)
		}
	}
	rep.Phases = phaseStats(spans, rep.DurationNS)
	rep.Critical, rep.CriticalNS = criticalPath(spans)
	rep.Stragglers = stragglers(spans)
	return rep
}

// phaseStats groups closed spans by name. Spans are sorted first so the
// grouping never depends on track registration or recording order.
func phaseStats(spans []reportSpan, runNS int64) []PhaseStat {
	byName := append([]reportSpan(nil), spans...)
	sort.Slice(byName, func(i, j int) bool {
		a, b := byName[i], byName[j]
		if a.ev.name != b.ev.name {
			return a.ev.name < b.ev.name
		}
		if a.ev.start != b.ev.start {
			return a.ev.start < b.ev.start
		}
		return a.track < b.track
	})
	var out []PhaseStat
	for _, s := range byName {
		if n := len(out); n == 0 || out[n-1].Name != s.ev.name {
			out = append(out, PhaseStat{Name: s.ev.name})
		}
		p := &out[len(out)-1]
		p.Count++
		p.TotalNS += s.ev.dur
		if s.ev.dur > p.MaxNS || p.MaxTrack == "" {
			p.MaxNS = s.ev.dur
			p.MaxTrack = s.track
		}
	}
	for i := range out {
		out[i].MeanNS = out[i].TotalNS / int64(out[i].Count)
		if runNS > 0 {
			out[i].PctOfRun = float64(out[i].TotalNS) / float64(runNS)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// criticalPath walks backward from the last-ending span: each
// predecessor is the latest-ending span whose end does not pass the
// current span's start (ties broken by start, then track, then name, so
// the walk is deterministic). Only top-level spans participate — nested
// spans are already covered by their parents.
func criticalPath(spans []reportSpan) ([]CriticalStep, int64) {
	var tops []reportSpan
	for _, s := range spans {
		if s.ev.depth == 0 {
			tops = append(tops, s)
		}
	}
	if len(tops) == 0 {
		return nil, 0
	}
	// Order the spans latest-ending first; the walk then only ever moves
	// forward through this order, which both picks the latest-ending
	// predecessor and guarantees termination on zero-duration ties.
	sort.Slice(tops, func(i, j int) bool {
		a, b := tops[i], tops[j]
		ae, be := a.ev.start+a.ev.dur, b.ev.start+b.ev.dur
		if ae != be {
			return ae > be
		}
		if a.ev.start != b.ev.start {
			return a.ev.start > b.ev.start
		}
		if a.track != b.track {
			return a.track < b.track
		}
		return a.ev.name < b.ev.name
	})
	var path []CriticalStep
	var total int64
	cur := 0
	for cur >= 0 {
		s := tops[cur]
		path = append(path, CriticalStep{
			Track: s.track, Name: s.ev.name, Seq: s.ev.seq,
			StartNS: s.ev.start, DurNS: s.ev.dur,
		})
		total += s.ev.dur
		next := -1
		for k := cur + 1; k < len(tops); k++ {
			if tops[k].ev.start+tops[k].ev.dur <= s.ev.start {
				next = k
				break
			}
		}
		cur = next
	}
	// The walk built the path back-to-front; present it in time order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, total
}

// stragglers flags spans that took over twice their phase's median,
// strongest ratio first.
func stragglers(spans []reportSpan) []Straggler {
	byName := append([]reportSpan(nil), spans...)
	sort.Slice(byName, func(i, j int) bool {
		a, b := byName[i], byName[j]
		if a.ev.name != b.ev.name {
			return a.ev.name < b.ev.name
		}
		return a.ev.dur < b.ev.dur
	})
	var out []Straggler
	for i := 0; i < len(byName); {
		j := i
		for j < len(byName) && byName[j].ev.name == byName[i].ev.name {
			j++
		}
		group := byName[i:j]
		if len(group) >= 3 {
			med := group[len(group)/2].ev.dur
			if med > 0 {
				for _, s := range group {
					if s.ev.dur > 2*med {
						out = append(out, Straggler{
							Phase: s.ev.name, Track: s.track, Seq: s.ev.seq,
							DurNS: s.ev.dur, Median: med,
							Ratio: float64(s.ev.dur) / float64(med),
						})
					}
				}
			}
		}
		i = j
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Seq < out[j].Seq
	})
	if len(out) > 10 {
		out = out[:10]
	}
	return out
}

// ms renders nanoseconds as milliseconds for the text report.
func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// WriteText renders the report as a compact fixed-width table set.
func (r *TraceReport) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
	if _, err := fmt.Fprintf(w, "textrace report: run %s ms, %d tracks, critical path %s ms\n",
		ms(r.DurationNS), len(r.Tracks), ms(r.CriticalNS)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-24s %12s %6s %7s\n", "track", "busy ms", "util", "spans"); err != nil {
		return err
	}
	for _, k := range r.Tracks {
		if _, err := fmt.Fprintf(w, "  %-24s %12s %6s %7d\n",
			k.Name, ms(k.BusyNS), pct(k.Utilization), k.Spans); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-16s %6s %12s %10s %10s %6s  %s\n",
		"phase", "count", "total ms", "mean ms", "max ms", "%run", "max track"); err != nil {
		return err
	}
	for _, p := range r.Phases {
		if _, err := fmt.Fprintf(w, "  %-16s %6d %12s %10s %10s %6s  %s\n",
			p.Name, p.Count, ms(p.TotalNS), ms(p.MeanNS), ms(p.MaxNS),
			pct(p.PctOfRun), p.MaxTrack); err != nil {
			return err
		}
	}
	for _, s := range r.Stragglers {
		if _, err := fmt.Fprintf(w, "  straggler: %s seq %d on %s: %s ms (%.1fx median)\n",
			s.Phase, s.Seq, s.Track, ms(s.DurNS), s.Ratio); err != nil {
			return err
		}
	}
	for _, c := range r.Critical {
		if _, err := fmt.Fprintf(w, "  critical: %-24s %-16s seq %-6d %s +%s ms\n",
			c.Track, c.Name, c.Seq, ms(c.StartNS), ms(c.DurNS)); err != nil {
			return err
		}
	}
	return nil
}
