package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/sgxorch/sgxorch"
)

// Scaling of the paper's §VI-B replay: trace memory fractions become
// bytes against 32 GiB for standard jobs and against the 93.5 MiB of
// usable EPC for SGX jobs; SGX jobs also ask for 16 MiB of ordinary
// memory.
const (
	standardScale = 32 * sgxorch.GiB
	sgxScale      = 93*sgxorch.MiB + 512*sgxorch.KiB
	sgxJobMemory  = 16 * sgxorch.MiB
	epcPage       = 4 * sgxorch.KiB
)

// borgDayJobs is a whole day at the density of the paper's evaluation
// slice (663 jobs in its one-hour window): 663 × 24 ≈ 16k.
const borgDayJobs = 663 * 24

// opsWarmup is how much of the day ops-dashboard replays in set-up to
// fill the TSDB before the dashboard starts reading.
const opsWarmup = 12 * time.Hour

// scrapeInterval is the product's default monitoring period; the
// dashboard refreshes on it.
const scrapeInterval = 10 * time.Second

// schedInterval is the product's default scheduling period; one tick of
// the benchmark's loop advances the cluster by it.
const schedInterval = 5 * time.Second

// plannedJob is one submission: at is its sim offset from the start.
type plannedJob struct {
	at   time.Duration
	spec sgxorch.JobSpec
}

// plan is a workload's generated input plus how to drive it.
type plan struct {
	nodes []sgxorch.NodeSpec
	jobs  []plannedJob // sorted by at
	// warmup is the sim span replayed during set-up (ops-dashboard).
	warmup time.Duration
	// dashboard refreshes the operator dashboard every scrape interval
	// of the timed phase.
	dashboard bool
	// horizon is the sim time by which every job must be terminal.
	horizon time.Duration
	// quorum maps each gang to its GangMinMember.
	quorum map[string]int
	// members lists each gang's job indexes.
	members map[string][]int
}

// workload names a generator; the seed is its only input.
type workload struct {
	name string
	gen  func(seed int64) *plan
}

var workloads = []workload{
	{"borg-day", borgDay},
	{"priority-saturation", prioritySaturation},
	{"ops-dashboard", opsDashboard},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// borgDay is the paper's §VI-B replay stretched over a whole day: a
// synthetic Borg day at the evaluation slice's density, half the jobs
// designated SGX, submitted at their trace offsets on the §VI-A testbed.
func borgDay(seed int64) *plan {
	tr := sgxorch.GenerateBorgDay(seed, borgDayJobs)
	sgxJobs := designate(len(tr.Jobs), len(tr.Jobs)/2, rand.New(rand.NewSource(seed+11)))
	p := &plan{nodes: sgxorch.PaperTestbedNodes(), horizon: 48 * time.Hour}
	for i, j := range tr.Jobs {
		spec := sgxorch.JobSpec{Name: fmt.Sprintf("job-%05d", i), Duration: j.Duration}
		if sgxJobs[i] {
			spec.MemoryRequestBytes = sgxJobMemory
			spec.EPCRequestBytes = max(int64(j.AssignedMemFrac*float64(sgxScale)), epcPage)
			spec.EPCUsageBytes = int64(j.MaxMemFrac * float64(sgxScale))
		} else {
			spec.MemoryRequestBytes = int64(j.AssignedMemFrac * float64(standardScale))
			spec.MemoryUsageBytes = int64(j.MaxMemFrac * float64(standardScale))
		}
		p.jobs = append(p.jobs, plannedJob{at: j.Submit, spec: spec})
	}
	sort.SliceStable(p.jobs, func(a, b int) bool { return p.jobs[a].at < p.jobs[b].at })
	return p
}

// opsDashboard is borg-day's input with an operator dashboard reading
// the TSDB and the exposition beside the writes.
func opsDashboard(seed int64) *plan {
	p := borgDay(seed)
	p.warmup = opsWarmup
	p.dashboard = true
	return p
}

// Priority-saturation shape.
const (
	satJobs     = 4000
	satStandard = 16
	satSGX      = 16
	satGangSize = 4
)

// satClass is one workload class's share of the saturation backlog.
type satClass struct {
	class    string
	tiers    [2]int32
	minDur   time.Duration
	maxDur   time.Duration
	minMem   int64 // standard jobs' memory range
	maxMem   int64
	gangFrac float64
}

var satClasses = []satClass{
	{sgxorch.ClassLatencySensitive, [2]int32{900, 1000}, 20 * time.Second, 2 * time.Minute,
		256 * sgxorch.MiB, 2 * sgxorch.GiB, 0},
	{sgxorch.ClassBatch, [2]int32{400, 500}, time.Minute, 10 * time.Minute,
		1 * sgxorch.GiB, 8 * sgxorch.GiB, 0.4},
	{sgxorch.ClassBestEffort, [2]int32{0, 100}, time.Minute, 10 * time.Minute,
		512 * sgxorch.MiB, 4 * sgxorch.GiB, 0},
}

// satNodes is a heterogeneous cluster: standard nodes of two sizes and
// SGX nodes of two EPC sizes, plus the control-plane node.
func satNodes() []sgxorch.NodeSpec {
	nodes := []sgxorch.NodeSpec{{Name: "master", RAMBytes: 64 * sgxorch.GiB, CPUMillis: 8000, Master: true}}
	for i := 0; i < satStandard; i++ {
		ram := 64 * sgxorch.GiB
		if i%2 == 1 {
			ram = 32 * sgxorch.GiB
		}
		nodes = append(nodes, sgxorch.NodeSpec{Name: fmt.Sprintf("std-%02d", i), RAMBytes: ram, CPUMillis: 8000})
	}
	for i := 0; i < satSGX; i++ {
		epc := 128 * sgxorch.MiB
		if i%4 == 3 {
			epc = 256 * sgxorch.MiB
		}
		nodes = append(nodes, sgxorch.NodeSpec{
			Name: fmt.Sprintf("sgx-%02d", i), RAMBytes: 8 * sgxorch.GiB, CPUMillis: 8000,
			SGX: true, EPCSize: epc,
		})
	}
	return nodes
}

// prioritySaturation is a backlog several times the cluster's capacity,
// all submitted at t=0: a third of the jobs in each workload class, two
// priority tiers per class, a quarter SGX, and 40% of the batch jobs in
// gangs of four.
func prioritySaturation(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	classOf := make([]int, satJobs)
	for i := range classOf {
		classOf[i] = i * len(satClasses) / satJobs
	}
	rng.Shuffle(len(classOf), func(i, j int) { classOf[i], classOf[j] = classOf[j], classOf[i] })
	sgxJobs := designate(satJobs, satJobs/4, rng)

	p := &plan{
		nodes:   satNodes(),
		horizon: 24 * time.Hour,
		quorum:  map[string]int{},
		members: map[string][]int{},
	}
	// Gang members accumulate per (tier) until a gang is full, so a gang
	// never spans priority tiers.
	open := map[int32]string{}
	gangs := 0
	for i := 0; i < satJobs; i++ {
		c := satClasses[classOf[i]]
		tier := c.tiers[rng.Intn(2)]
		dur := c.minDur + time.Duration(rng.Int63n(int64(c.maxDur-c.minDur)))
		spec := sgxorch.JobSpec{
			Name:     fmt.Sprintf("job-%05d", i),
			Duration: dur.Truncate(time.Millisecond),
			Priority: tier,
			Class:    c.class,
		}
		inGang := !sgxJobs[i] && rng.Float64() < c.gangFrac
		if sgxJobs[i] {
			spec.MemoryRequestBytes = 64*sgxorch.MiB + rng.Int63n(448*sgxorch.MiB)
			spec.EPCRequestBytes = 2*sgxorch.MiB + rng.Int63n(22*sgxorch.MiB)
		} else {
			spec.MemoryRequestBytes = c.minMem + rng.Int63n(c.maxMem-c.minMem)
		}
		if inGang {
			g, ok := open[tier]
			if !ok {
				g = fmt.Sprintf("gang-%03d", gangs)
				gangs++
				open[tier] = g
				p.quorum[g] = satGangSize
			}
			spec.Gang, spec.GangMinMember = g, satGangSize
			p.members[g] = append(p.members[g], len(p.jobs))
			if len(p.members[g]) == satGangSize {
				delete(open, tier)
			}
		}
		p.jobs = append(p.jobs, plannedJob{spec: spec})
	}
	// A gang left short at the end would never reach quorum: shrink its
	// quorum to the members it has.
	for _, g := range open {
		n := len(p.members[g])
		p.quorum[g] = n
		for _, idx := range p.members[g] {
			p.jobs[idx].spec.GangMinMember = n
		}
	}
	return p
}

// designate marks exactly k of n items, shuffled by rng.
func designate(n, k int, rng *rand.Rand) []bool {
	out := make([]bool, n)
	for i := 0; i < k; i++ {
		out[i] = true
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
