package main

import (
	"fmt"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics and the problems met computing them (a
// percentile refused for too few samples, a broken identity).
type metricSet struct {
	m        map[string]metric
	problems []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	s.m[name] = metric{Value: v, Unit: unit}
}

// q sets name to the q-quantile of xs (scaled), or records why not.
func (s *metricSet) q(name string, xs []float64, q, scale float64, unit string) {
	v, err := quantile(xs, q)
	if err != nil {
		s.problems = append(s.problems, fmt.Sprintf("%s: %v", name, err))
		return
	}
	s.set(name, v*scale, unit)
}

// sampledStages are timed on detail-sampled passes only (preemption
// planning included: it runs per unschedulable pod); snapshot-sync and
// bind are timed on every pass.
var sampledStages = map[string]bool{"prefilter": true, "filter": true, "score": true, "permit": true, "preemption-plan": true}

// Metric units.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitCount = "count"
	unitMB    = "MB"
	unitPct   = "%"
	unitRate  = "1/s"
)

// endToEnd computes the user-facing metrics over untraced repetitions:
// host figures are medians over repetitions (setup_s over every set-up
// timed), sim figures pool the jobs of the first simReps repetitions.
func endToEnd(reps []*repResult, setups []float64) *metricSet {
	s := newMetricSet()
	var rates, passMean, readMean, waits, lsWaits []float64
	for _, r := range reps[:simReps] {
		waits = append(waits, r.waits...)
		lsWaits = append(lsWaits, r.lsWaits...)
	}
	for _, r := range reps {
		rates = append(rates, float64(r.doneTimed)/r.timed.Seconds())
		passMean = append(passMean, mean(passWalls(r)))
		readMean = append(readMean, mean(readTotals(r)))
	}
	s.set("setup_s", median(setups), unitS)
	s.set("jobs_per_s", median(rates), unitRate)
	s.q("wait_p50_s", waits, 0.5, 1, unitS)
	s.q("wait_p99_s", waits, 0.99, 1, unitS)
	s.q("ls_wait_p99_s", lsWaits, 0.99, 1, unitS)
	s.set("pass_mean_ms", median(passMean), unitMS)
	s.set("read_mean_ms", median(readMean), unitMS)
	s.set("rss_peak_mb", rssPeakMB(), unitMB)
	return s
}

func passWalls(r *repResult) []float64 {
	out := make([]float64, len(r.passes))
	for i, p := range r.passes {
		out[i] = ms(p.wall)
	}
	return out
}

func readTotals(r *repResult) []float64 {
	out := make([]float64, len(r.reads))
	for i, rd := range r.reads {
		out[i] = ms(rd.total)
	}
	return out
}

// spanTotals sums what the span tree of one repetition says about the
// clock and core layers in the timed phase, and the submit calls of
// every phase.
type spanTotals struct {
	ticks                       int
	tickMS                      []float64 // AdvanceTime time per tick
	tickSum, tickOther, passSum time.Duration
	submitUS                    []float64
	submitSum                   time.Duration
}

func totals(spans []Span) spanTotals {
	var t spanTotals
	self := selfTimes(spans)
	phase := make([]string, len(spans)+1)
	perTick := map[int]time.Duration{}
	var tickOrder []int
	for i, sp := range spans {
		ph := sp.Name
		if sp.Parent != 0 {
			ph = phase[sp.Parent]
		}
		phase[sp.ID] = ph
		if sp.Name == "apiserver.submit" {
			t.submitUS = append(t.submitUS, us(sp.Dur()))
			t.submitSum += sp.Dur()
		}
		if ph != "phase.timed" {
			continue
		}
		switch sp.Name {
		case "clock.tick":
			t.ticks++
			tickOrder = append(tickOrder, sp.ID)
			perTick[sp.ID] = 0
		case "clock.advance":
			t.tickSum += sp.Dur()
			t.tickOther += self[i]
			perTick[sp.Parent] += sp.Dur()
		case "core.pass":
			t.passSum += sp.Dur()
		}
	}
	for _, id := range tickOrder {
		t.tickMS = append(t.tickMS, ms(perTick[id]))
	}
	return t
}

// perLayer computes the layer metrics from a traced repetition, its
// untraced twin (runtime figures and the tracing overhead) and the
// traced telemetry-off companion (the telemetry plane's price).
func perLayer(u, t, c *repResult) *metricSet {
	s := newMetricSet()
	tt := totals(t.spans.spans)
	ct := totals(c.spans.spans)

	// core, from the pass traces.
	walls := passWalls(t)
	var pending, bound, preempts, conflicts, detailed int
	var wallSum, detailedWall time.Duration
	stageSum := map[string]time.Duration{}
	for _, p := range t.passes {
		wallSum += p.wall
		pending += p.pending
		bound += p.bound
		preempts += p.preempts
		conflicts += p.conflicts
		if p.detailed {
			detailed++
			detailedWall += p.wall
		}
		for st, d := range p.stages {
			stageSum[st] += d
		}
	}
	s.set("core.passes", float64(len(t.passes)), unitCount)
	s.set("core.detailed_passes", float64(detailed), unitCount)
	s.q("core.pass_ms_p50", walls, 0.5, 1, unitMS)
	s.q("core.pass_ms_p95", walls, 0.95, 1, unitMS)
	s.set("core.pass_ms_sum", ms(tt.passSum), unitMS)
	s.set("core.pending_attempts", float64(pending), unitCount)
	s.set("core.bound", float64(bound), unitCount)
	s.set("core.bound_per_attempt", ratio(float64(bound), float64(pending)), "ratio")
	s.set("core.preemptions", float64(preempts), unitCount)
	s.set("core.conflicts", float64(conflicts), unitCount)
	for _, st := range stageOrder {
		s.set("core.stage."+st+"_ms", ms(stageSum[st]), unitMS)
		base := wallSum
		if sampledStages[st] {
			base = detailedWall
		}
		s.set("core.stage."+st+"_pct", 100*ratio(float64(stageSum[st]), float64(base)), unitPct)
	}
	if wallSum != tt.passSum {
		s.problems = append(s.problems, fmt.Sprintf("pass traces sum %v != pass spans sum %v", wallSum, tt.passSum))
	}

	// apiserver
	s.q("apiserver.submit_us_p50", tt.submitUS, 0.5, 1, unitUS)
	s.set("apiserver.submit_ms_sum", ms(tt.submitSum), unitMS)
	s.set("apiserver.bind_us_p50", t.bindUsP50, unitUS)
	s.set("apiserver.binds", float64(t.bindCount), unitCount)
	s.set("apiserver.bind_rejections", t.bindRejections, unitCount)
	peak := 0
	for _, p := range t.passes {
		peak = max(peak, p.pending)
	}
	s.set("apiserver.pending_peak", float64(peak), unitCount)

	// watch
	s.set("watch.subscribers", float64(t.watchSubs), unitCount)
	s.set("watch.max_lag", t.watchMaxLag, unitCount)
	s.set("watch.resyncs", t.watchResyncs, unitCount)
	s.set("watch.dropped", t.watchDropped, unitCount)

	// clock: the identity pass + other = tick holds by construction of
	// self time unless a pass escaped its AdvanceTime call.
	s.set("clock.ticks", float64(tt.ticks), unitCount)
	s.q("clock.tick_ms_p50", tt.tickMS, 0.5, 1, unitMS)
	s.set("clock.tick_ms_sum", ms(tt.tickSum), unitMS)
	s.set("clock.tick_other_ms_sum", ms(tt.tickOther), unitMS)
	if d := tt.passSum + tt.tickOther - tt.tickSum; d > time.Microsecond || d < -time.Microsecond {
		s.problems = append(s.problems, fmt.Sprintf("pass %v + tick other %v != tick %v", tt.passSum, tt.tickOther, tt.tickSum))
	}

	// telemetry
	s.set("telemetry.plane_ms_sum", ms(tt.tickSum-ct.tickSum), unitMS)
	var prom, bytes, rows []float64
	var qs [len(dashboardQueries)][]float64
	for _, rd := range t.reads {
		prom = append(prom, us(rd.prom))
		bytes = append(bytes, float64(rd.bytes))
		rows = append(rows, float64(rd.rows))
		for i, d := range rd.queries {
			qs[i] = append(qs[i], us(d))
		}
	}
	s.q("dashboard.read_ms_p50", readTotals(t), 0.5, 1, unitMS)
	s.q("telemetry.prometheus_us_p50", prom, 0.5, 1, unitUS)
	s.set("telemetry.prometheus_bytes", median(bytes), "B")

	// influxql
	for i, q := range dashboardQueries {
		s.q("influxql."+q.name+"_us_p50", qs[i], 0.5, 1, unitUS)
	}
	s.set("influxql.rows", median(rows), unitCount)

	// lifecycle
	s.set("lifecycle.binds_observed", float64(t.lcBinds), unitCount)
	s.set("lifecycle.runs_observed", float64(t.lcRuns), unitCount)
	s.set("lifecycle.epc_kills", float64(t.epcKills), unitCount)

	// runtime, from the untraced repetition
	s.set("runtime.alloc_mb", u.allocMB, unitMB)
	s.set("runtime.gc_cpu_s", u.gcCPU, unitS)
	s.set("runtime.heap_peak_mb", float64(u.heapPeak)/(1<<20), unitMB)

	// tracing overhead: traced against untraced throughput
	ur := float64(u.doneTimed) / u.timed.Seconds()
	tr := float64(t.doneTimed) / t.timed.Seconds()
	s.set("trace.overhead_pct", 100*(ur-tr)/ur, unitPct)
	s.set("trace.spans", float64(len(t.spans.spans)), unitCount)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMB is this process's peak resident set.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	// Getrusage cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
