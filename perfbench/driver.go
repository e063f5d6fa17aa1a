package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/sgxorch/sgxorch"
)

// repMode selects how one repetition is measured.
type repMode struct {
	// traced records a span around every facade call.
	traced bool
	// noTelemetry sets ClusterConfig.DisableTelemetry: the traced
	// companion that prices the telemetry plane.
	noTelemetry bool
}

// jobState is the benchmark's own view of one job, rebuilt from
// JobStatus polls after every tick.
type jobState struct {
	node     string            // last observed binding ("" while pending)
	ranCycle bool              // a run was counted since the last bind
	final    sgxorch.JobStatus // the status that showed it terminal
}

// repResult is everything one repetition measured.
type repResult struct {
	setup time.Duration
	// timed is host time spent inside facade calls during the timed
	// phase; doneTimed counts the jobs that became terminal in it.
	timed     time.Duration
	doneTimed int

	// submitted counts SubmitJob calls; failed counts failed operations
	// (submission errors, jobs not terminal at the horizon, failed
	// checks), of which violations keeps the first few messages.
	submitted  int
	failed     int
	violations []string

	waits, lsWaits []float64 // sim seconds
	epcKills       int
	oomKills       int
	fingerprint    uint64

	passes []passSample
	reads  []readSample

	// binds/runs are the benchmark's own counts from JobStatus polls;
	// lcBinds/lcRuns are LifecycleStats at the end.
	binds, runs     int64
	lcBinds, lcRuns int64

	heapPeak uint64
	allocMB  float64
	gcCPU    float64

	// registry-derived figures (telemetry on only)
	bindUsP50      float64
	bindCount      int64
	bindRejections float64
	watchSubs      int
	watchMaxLag    float64
	watchResyncs   float64
	watchDropped   float64

	spans *recorder
}

// passSample is one scheduling pass read from the pass traces.
type passSample struct {
	wall                time.Duration
	pending, bound      int
	conflicts, preempts int
	detailed            bool
	stages              map[string]time.Duration
}

// readSample is one dashboard refresh.
type readSample struct {
	total   time.Duration
	queries [3]time.Duration
	prom    time.Duration
	bytes   int
	rows    int
}

// Dashboard queries: Listing 1 of the paper (§V-C), its memory twin on
// the Heapster measurement, and the per-class submit→bind p99 read back
// from the self-scrape over the last scrape interval. inner is the
// per-pod subquery alone; the benchmark sums its rows per node to check
// the nested query's answer.
var dashboardQueries = [3]struct{ name, text, inner string }{
	{"listing1-epc", `SELECT SUM(epc) AS epc FROM
(SELECT MAX(value) AS epc FROM "sgx/epc"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`, `SELECT MAX(value) AS epc FROM "sgx/epc" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename`},
	{"listing1-mem", `SELECT SUM(mem) AS mem FROM
(SELECT MAX(value) AS mem FROM "memory/usage"
WHERE value <> 0 AND time >= now() - 25s
GROUP BY pod_name, nodename
)
GROUP BY nodename`, `SELECT MAX(value) AS mem FROM "memory/usage" WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename`},
	{"lifecycle-p99", `SELECT MAX(value) FROM "self/lifecycle_queue_seconds" WHERE quantile = '0.99' AND time >= now() - 10s GROUP BY class`, ""},
}

// driver runs one repetition of a plan against a fresh cluster.
type driver struct {
	p     *plan
	mode  repMode
	c     *sgxorch.Cluster
	rec   *recorder
	start time.Time // the cluster's sim start

	phase   int // span of the current phase: parent of its ticks
	next    int // next job of p.jobs to submit
	jobs    []jobState
	active  []int // submitted, not yet terminal
	timing  bool  // accumulate facade time into res.timed
	lastSeq int64
	res     *repResult

	nodeCap    map[string]sgxorch.NodeStatus
	gangOK     map[string]bool
	sampleTick int
	probedAt   time.Time // last probe refresh (workloads without a dashboard)
}

// probeEvery paces the probe refreshes of workloads without a dashboard:
// one per probeEvery of host time, outside the timed phase's account, so
// their read cost is sampled across the whole run (the host's speed for
// memory-bound work swings within a second) without adding reads to
// the loop being timed.
const probeEvery = 25 * time.Millisecond

// runRep generates the workload's input from seed, builds the cluster,
// runs set-up and the timed phase, and checks the outputs.
func runRep(w workload, seed int64, mode repMode, rep int) (*repResult, error) {
	res := &repResult{}
	if mode.traced {
		res.spans = newRecorder()
		res.spans.rep = rep
	}
	// Collect the previous repetition's garbage now, not during this
	// one's measurement.
	runtime.GC()
	allocBefore, gcBefore := runtimeCounters()

	d, err := setUp(w, seed, mode, res)
	if err != nil {
		return nil, err
	}
	defer d.c.Close()

	terminal := func() int { return d.next - len(d.active) }
	doneBefore := terminal()
	d.phase = d.rec.begin("phase.timed", 0)
	d.timing = true
	d.replay(d.p.horizon)
	d.timing = false
	d.rec.end(d.phase)
	res.doneTimed = terminal() - doneBefore

	d.finish()
	allocAfter, gcAfter := runtimeCounters()
	res.allocMB = float64(allocAfter-allocBefore) / (1 << 20)
	res.gcCPU = gcAfter - gcBefore
	return res, nil
}

// setUp does everything before the timed phase — input generation,
// cluster assembly, and the backlog submission or warm-up replay — and
// records its host time in res.setup. The caller closes the cluster.
func setUp(w workload, seed int64, mode repMode, res *repResult) (*driver, error) {
	t0 := time.Now()
	p := w.gen(seed)
	c, err := sgxorch.NewCluster(sgxorch.ClusterConfig{Nodes: p.nodes, DisableTelemetry: mode.noTelemetry})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	d := &driver{
		p: p, mode: mode, c: c, rec: res.spans, start: c.Now(),
		jobs: make([]jobState, len(p.jobs)), res: res,
		nodeCap: map[string]sgxorch.NodeStatus{}, gangOK: map[string]bool{},
	}
	for _, n := range c.Nodes() {
		d.nodeCap[n.Name] = n
	}
	d.phase = d.rec.begin("phase.setup", 0)
	if p.warmup > 0 {
		d.replay(p.warmup)
	} else {
		for d.next < len(p.jobs) && p.jobs[d.next].at == 0 {
			d.submitNext()
		}
	}
	d.rec.end(d.phase)
	res.setup = time.Since(t0)
	return d, nil
}

// setupOnly measures one more set-up on its own; its checks still count.
func setupOnly(w workload, seed int64) (*repResult, error) {
	runtime.GC()
	res := &repResult{}
	d, err := setUp(w, seed, repMode{}, res)
	if err != nil {
		return nil, err
	}
	d.c.Close()
	return res, nil
}

// replay advances the cluster one scheduling interval at a time until
// the sim offset reaches until, or every job is submitted and terminal.
func (d *driver) replay(until time.Duration) {
	for {
		now := d.c.Now().Sub(d.start)
		if now >= until || (d.next == len(d.p.jobs) && len(d.active) == 0) {
			return
		}
		tickEnd := (now/schedInterval + 1) * schedInterval
		tick := d.rec.begin("clock.tick", d.phase)
		var advances []int
		for d.next < len(d.p.jobs) && d.p.jobs[d.next].at < tickEnd {
			if gap := d.p.jobs[d.next].at - d.c.Now().Sub(d.start); gap > 0 {
				advances = append(advances, d.advance(gap, tick))
			}
			d.submitNext()
		}
		// Stop just short of the pass at tickEnd to see which bound jobs
		// started: a job that starts and is preempted in one interval
		// is otherwise invisible to polling. Passes only run at
		// interval boundaries, and preemption only in passes.
		if gap := tickEnd - prePass - d.c.Now().Sub(d.start); gap > 0 {
			advances = append(advances, d.advance(gap, tick))
		}
		d.pollStarts()
		advances = append(advances, d.advance(tickEnd-d.c.Now().Sub(d.start), tick))
		d.rec.end(tick)

		d.drainPasses(tick, advances)
		d.poll()
		d.checkNodes()
		d.checkGangs()
		d.sampleHeap()
		switch {
		case !d.timing:
		case d.p.dashboard && tickEnd%scrapeInterval == 0:
			d.refresh(tick, true)
		case !d.p.dashboard && time.Since(d.probedAt) >= probeEvery:
			d.probedAt = time.Now()
			d.refresh(tick, false)
		}
	}
}

// timed runs fn, adds its host time to the timed phase when timing, and
// records it as a span under parent when tracing.
func (d *driver) timed(name string, parent int, fn func()) int {
	id := d.rec.begin(name, parent)
	t := time.Now()
	fn()
	if d.timing {
		d.res.timed += time.Since(t)
	}
	d.rec.end(id)
	return id
}

func (d *driver) advance(by time.Duration, tick int) int {
	return d.timed("clock.advance", tick, func() { d.c.AdvanceTime(by) })
}

func (d *driver) submitNext() {
	i := d.next
	d.next++
	var err error
	d.timed("apiserver.submit", d.phase, func() { err = d.c.SubmitJob(d.p.jobs[i].spec) })
	d.res.submitted++
	if err != nil {
		d.violate("submit %s: %v", d.p.jobs[i].spec.Name, err)
		return
	}
	d.active = append(d.active, i)
}

// violate counts one failed operation and keeps its message.
func (d *driver) violate(format string, args ...any) {
	d.res.failed++
	if len(d.res.violations) < 50 {
		d.res.violations = append(d.res.violations, fmt.Sprintf(format, args...))
	} else {
		d.res.violations[49] = "... more violations"
	}
}

// drainPasses reads the pass traces of the tick just run and attaches
// each pass, with its stage spans, to the advance call that ran it.
func (d *driver) drainPasses(tick int, advances []int) {
	traces := d.c.PassTraces()
	// Seq also numbers the empty passes the ring skips, so gaps are
	// normal; a ring holding nothing but new traces may have dropped
	// older new ones.
	if len(traces) >= traceRingSize && traces[0].Seq > d.lastSeq {
		d.violate("pass-trace ring overflowed within one tick")
	}
	for _, tr := range traces {
		if tr.Seq <= d.lastSeq {
			continue
		}
		d.lastSeq = tr.Seq
		if !d.timing {
			continue
		}
		ps := passSample{
			wall: tr.Wall, pending: tr.Pending, bound: tr.Bound, conflicts: tr.Conflicts,
			preempts: tr.Preemptions, detailed: tr.Detailed,
			stages: map[string]time.Duration{},
		}
		for _, sp := range tr.Spans {
			if sp.Plugin == "" {
				ps.stages[sp.Stage] += sp.Dur
			}
		}
		d.res.passes = append(d.res.passes, ps)
		if d.rec == nil {
			continue
		}
		parent := tick
		for _, a := range advances {
			s := d.rec.spans[a-1]
			if at := tr.Start.Sub(d.rec.origin); at >= s.Start && at <= s.End {
				parent = a
				break
			}
		}
		pass := d.rec.add("core.pass", parent, tr.Start, tr.Wall)
		// Stage spans carry durations only; lay them out in pipeline
		// order from the pass start.
		at := tr.Start
		for _, stage := range stageOrder {
			if dur, ok := ps.stages[stage]; ok {
				d.rec.add("core.stage."+stage, pass, at, dur)
				at = at.Add(dur)
			}
		}
	}
}

// traceRingSize is the product's default pass-trace retention.
const traceRingSize = 64

var stageOrder = []string{"snapshot-sync", "prefilter", "filter", "score", "permit", "preemption-plan", "bind"}

// prePass is how far before a pass pollStarts looks.
const prePass = time.Nanosecond

// pollStarts counts the runs of bound jobs not yet seen running.
func (d *driver) pollStarts() {
	for _, i := range d.active {
		js := &d.jobs[i]
		if js.node == "" || js.ranCycle {
			continue
		}
		st, err := d.c.JobStatus(d.p.jobs[i].spec.Name)
		if err != nil {
			d.violate("status %s: %v", d.p.jobs[i].spec.Name, err)
			continue
		}
		if st.Node == js.node && st.Started {
			d.res.runs++
			js.ranCycle = true
		}
	}
}

// poll reads every active job's status: it counts binds (a transition
// to a node) and runs (the first start of each bind cycle), and retires
// terminal jobs.
func (d *driver) poll() {
	keep := d.active[:0]
	for _, i := range d.active {
		js := &d.jobs[i]
		st, err := d.c.JobStatus(d.p.jobs[i].spec.Name)
		if err != nil {
			d.violate("status %s: %v", d.p.jobs[i].spec.Name, err)
			continue
		}
		if st.Node != js.node {
			if st.Node != "" {
				d.res.binds++
			}
			js.node = st.Node
			js.ranCycle = false
		}
		if st.Node != "" && !js.ranCycle && (st.Phase == "Running" || st.Started) {
			d.res.runs++
			js.ranCycle = true
		}
		if st.Phase == "Succeeded" || st.Phase == "Failed" {
			js.final = st
			continue
		}
		keep = append(keep, i)
	}
	d.active = keep
}

// checkNodes asserts capacity is never overcommitted.
func (d *driver) checkNodes() {
	for _, n := range d.c.Nodes() {
		if n.MemoryUsed > n.MemoryBytes {
			d.violate("node %s memory %d > %d at %v", n.Name, n.MemoryUsed, n.MemoryBytes, d.c.Now().Sub(d.start))
		}
		if n.EPCPagesFree < 0 || n.EPCPagesFree > n.EPCPages {
			d.violate("node %s EPC free %d outside [0,%d] at %v", n.Name, n.EPCPagesFree, n.EPCPages, d.c.Now().Sub(d.start))
		}
	}
}

// checkGangs asserts that when a gang's first member is bound, at least
// a quorum of its members are bound with it.
func (d *driver) checkGangs() {
	for g, idx := range d.p.members {
		if d.gangOK[g] {
			continue
		}
		bound := 0
		for _, i := range idx {
			if d.jobs[i].node != "" {
				bound++
			}
		}
		if bound == 0 {
			continue
		}
		if bound < d.p.quorum[g] {
			d.violate("gang %s has %d members bound, quorum %d", g, bound, d.p.quorum[g])
		}
		d.gangOK[g] = true
	}
}

// sampleHeap tracks the peak live heap every 20 ticks.
func (d *driver) sampleHeap() {
	d.sampleTick++
	if d.sampleTick%20 != 0 {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > d.res.heapPeak {
		d.res.heapPeak = v
	}
}

// refresh is one operator-dashboard refresh: the three queries and one
// Prometheus exposition, each checked. Only the four calls are timed;
// counted adds their time to the timed phase.
func (d *driver) refresh(parent int, counted bool) {
	var rs readSample
	for qi, q := range dashboardQueries {
		id := d.rec.begin("influxql."+q.name, parent)
		t := time.Now()
		r, err := d.c.Query(q.text)
		rs.queries[qi] = time.Since(t)
		d.rec.end(id)
		rs.total += rs.queries[qi]
		if err != nil {
			d.violate("query %s: %v", q.name, err)
			continue
		}
		rs.rows += len(r.Rows)
		if q.inner == "" {
			continue
		}
		got := map[string]float64{}
		for _, row := range r.Rows {
			node := row.Tags["nodename"]
			n, known := d.nodeCap[node]
			if !known || row.Value <= 0 || (q.name == "listing1-epc" && !n.SGX) {
				d.violate("%s: node %q value %v", q.name, node, row.Value)
			}
			got[node] = row.Value
		}
		d.checkNested(q.name, q.inner, got)
	}
	var buf bytes.Buffer
	id := d.rec.begin("telemetry.prometheus", parent)
	t := time.Now()
	err := d.c.WritePrometheus(&buf)
	rs.prom = time.Since(t)
	d.rec.end(id)
	if err != nil {
		d.violate("exposition: %v", err)
	}
	rs.total += rs.prom
	if counted {
		d.res.timed += rs.total
	}
	rs.bytes = buf.Len()
	d.checkExposition(buf.String())
	d.res.reads = append(d.res.reads, rs)
}

// checkNested compares a nested query's per-node sums with the rows of
// its inner query summed here.
func (d *driver) checkNested(name, inner string, got map[string]float64) {
	r, err := d.c.Query(inner)
	if err != nil {
		d.violate("query %s inner: %v", name, err)
		return
	}
	want := map[string]float64{}
	for _, row := range r.Rows {
		want[row.Tags["nodename"]] += row.Value
	}
	if len(want) != len(got) {
		d.violate("%s: %d nodes, inner query gives %d", name, len(got), len(want))
		return
	}
	for node, w := range want {
		if g, ok := got[node]; !ok || math.Abs(g-w) > 1e-9*math.Abs(w) {
			d.violate("%s: node %s sum %v, inner query gives %v", name, node, g, w)
		}
	}
}

// checkExposition cross-checks the exposition's lifecycle counter with
// LifecycleStats read at the same moment.
func (d *driver) checkExposition(text string) {
	if d.mode.noTelemetry {
		return
	}
	binds, _ := d.c.LifecycleStats()
	want := fmt.Sprintf("lifecycle_binds_observed_total %d\n", binds)
	if !strings.Contains(text, want) {
		d.violate("exposition lacks %q", strings.TrimSpace(want))
	}
}

// finish records outcomes, the kill counts, the fingerprint and the
// registry figures, and runs the end-of-run checks.
func (d *driver) finish() {
	res := d.res
	if n := len(d.active) + len(d.p.jobs) - d.next; n > 0 {
		d.violate("%d jobs not terminal at the %v horizon", n, d.p.horizon)
		res.failed += n - 1
	}
	h := fnv.New64a()
	for i, pj := range d.p.jobs {
		st := d.jobs[i].final
		fmt.Fprintf(h, "%s|%s|%s|%d|%s\n", pj.spec.Name, st.Phase, st.Node, st.Waiting, st.Reason)
		if st.Phase == "Failed" {
			switch {
			case strings.Contains(st.Reason, "EPC limit"):
				res.epcKills++
			case strings.Contains(st.Reason, "out of memory"):
				res.oomKills++
			default:
				d.violate("job %s failed: %s", pj.spec.Name, st.Reason)
			}
		}
		if !st.Started {
			continue
		}
		w := st.Waiting.Seconds()
		res.waits = append(res.waits, w)
		if pj.spec.Class == sgxorch.ClassLatencySensitive || pj.spec.Class == "" {
			// Jobs without a declared class (borg-day, ops-dashboard)
			// share one priority tier, so that tier is the most urgent.
			res.lsWaits = append(res.lsWaits, w)
		}
	}
	res.fingerprint = h.Sum64()

	if d.mode.noTelemetry {
		return
	}
	res.lcBinds, res.lcRuns = d.c.LifecycleStats()
	if res.lcBinds != res.binds || res.lcRuns != res.runs {
		d.violate("LifecycleStats binds/runs %d/%d != observed %d/%d", res.lcBinds, res.lcRuns, res.binds, res.runs)
	}
	reg := d.c.Telemetry()
	bh := reg.Histogram("apiserver_bind_latency_seconds", nil)
	res.bindUsP50 = bh.Quantile(0.5) * 1e6
	res.bindCount = bh.Count()
	var buf bytes.Buffer
	if err := d.c.WritePrometheus(&buf); err != nil {
		d.violate("exposition: %v", err)
	}
	subs := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, labels, v, ok := parseSample(line)
		if !ok {
			continue
		}
		switch name {
		case "apiserver_bind_rejections_total":
			res.bindRejections += v
		case "watch_subscriber_max_lag":
			subs[labels] = true
			res.watchMaxLag = max(res.watchMaxLag, v)
		case "watch_subscriber_resyncs":
			res.watchResyncs += v
		case "watch_subscriber_dropped":
			res.watchDropped += v
		}
	}
	res.watchSubs = len(subs)
}

// parseSample splits one exposition sample line into its metric name,
// label set and value.
func parseSample(line string) (name, labels string, v float64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
		return "", "", 0, false
	}
	name = line[:sp]
	if br := strings.IndexByte(name, '{'); br >= 0 {
		name, labels = name[:br], name[br:]
	}
	return name, labels, v, true
}

// runtimeCounters reads cumulative allocated bytes and GC CPU seconds.
func runtimeCounters() (alloc uint64, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}
