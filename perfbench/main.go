// Command perfbench is the repository's whole-loop benchmark. It drives
// the cluster only through the root package's exported API, on the sim
// clock and with the product's default configuration (telemetry on), and
// checks the cluster's outputs while it measures.
//
//	perfbench --workload borg-day --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1
//
// With --trace 0 it prints the end-to-end metrics of one workload; with
// --trace 1 the per-layer metrics of a traced repetition. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. The exit status is non-zero when any check failed. See
// README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// simReps is the fewest untraced repetitions a --trace 0 run makes,
// however short --seconds is. Repetition r replays the input generated
// from inputSeed(seed, r); the sim-time metrics pool the first simReps
// inputs, so they depend on the seed alone, while host metrics are
// medians over every repetition.
const simReps = 3

// inputSeed is the generator seed of repetition rep of a run with seed.
func inputSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// heldOutSeed is the second seed --workload all checks: one not used
// while tuning a change, so a claim can be re-checked on it.
const heldOutSeed = 7919

// outDir receives the result, span and profile files.
const outDir = ".bench_out"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	profile  bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "borg-day, priority-saturation, ops-dashboard, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "host seconds of repetitions to run (at least three with --trace 0)")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.profile, "profile", false, "write a CPU and a heap profile of the run to "+outDir)
	flag.Parse()
	if cfg.trace != 0 && cfg.trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var ok bool
	var err error
	if cfg.workload == "all" {
		ok, err = runAll(cfg)
	} else {
		ok, err = runOne(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// result is the last stdout line, plus what the result file adds.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is written next to the spans for later comparison. The
// fingerprint (a hash of every job's phase, node, wait and reason) and
// the kill counts are those of the run's first input.
type resultFile struct {
	Stamp       stamp    `json:"stamp"`
	Result      result   `json:"result"`
	Fingerprint string   `json:"fingerprint"`
	EPCKills    int      `json:"epc_kills"`
	OOMKills    int      `json:"oom_kills"`
	Violations  []string `json:"violations,omitempty"`
}

// stamp identifies what was measured and where.
type stamp struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Runs       int    `json:"runs"`
	Seconds    int    `json:"seconds"`
	Date       string `json:"date"`
}

func newStamp(cfg config, runs int) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Runs:       runs,
		Seconds:    cfg.seconds,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	// The build stamps the commit of the checkout it was built from (the
	// commit measured), when that checkout is a git repository.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runOne measures one workload in this process and prints its result.
func runOne(cfg config) (bool, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return false, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, cfg.trace))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	stopProfile := func() error { return nil }
	if cfg.profile {
		if stopProfile, err = startProfile(base); err != nil {
			return false, err
		}
	}

	var reps []*repResult
	var ms *metricSet
	var checked []*repResult // set-up-only repetitions: checked, not measured
	begin := time.Now()
	if cfg.trace == 0 {
		for len(reps) < simReps || time.Since(begin) < time.Duration(cfg.seconds)*time.Second {
			r, err := runRep(w, inputSeed(cfg.seed, len(reps)), repMode{}, len(reps))
			if err != nil {
				return false, err
			}
			logRep(len(reps), r)
			reps = append(reps, r)
		}
		setups, extra, err := extraSetups(w, cfg.seed, reps)
		if err != nil {
			return false, err
		}
		ms = endToEnd(reps, setups)
		checked = append(checked, extra...)
	} else {
		// An untraced repetition, the traced one, and the traced
		// companion with telemetry off, all on the first input.
		for i, mode := range []repMode{{}, {traced: true}, {traced: true, noTelemetry: true}} {
			r, err := runRep(w, inputSeed(cfg.seed, 0), mode, i)
			if err != nil {
				return false, err
			}
			logRep(i, r)
			reps = append(reps, r)
		}
		ms = perLayer(reps[0], reps[1], reps[2])
		if err := writeSpans(base+".spans.json", reps[1:]); err != nil {
			return false, err
		}
	}
	if err := stopProfile(); err != nil {
		return false, err
	}

	res := result{Metrics: ms.m}
	var violations []string
	for i, r := range append(reps, checked...) {
		res.Attempted += r.submitted
		res.Failed += r.failed
		for _, v := range r.violations {
			violations = append(violations, fmt.Sprintf("rep %d: %s", i, v))
		}
	}
	if cfg.trace == 1 {
		for _, d := range sameSim(reps) {
			res.Failed++
			violations = append(violations, d)
		}
	}
	for _, p := range ms.problems {
		res.Failed++
		violations = append(violations, p)
	}
	res.Correct = res.Failed == 0

	st := newStamp(cfg, len(reps))
	file := resultFile{
		Stamp: st, Result: res, Fingerprint: fmt.Sprintf("%016x", reps[0].fingerprint),
		EPCKills: reps[0].epcKills, OOMKills: reps[0].oomKills, Violations: violations,
	}
	if err := writeJSON(base+".json", file); err != nil {
		return false, err
	}

	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "check failed:", v)
	}
	stampLine, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampLine)
	fmt.Printf("checks: fingerprint %s, epc kills %d, oom kills %d, %d violations\n",
		file.Fingerprint, file.EPCKills, file.OOMKills, len(violations))
	names := make([]string, 0, len(ms.m))
	for n := range ms.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// minSetups is how many set-ups a --trace 0 run times at least, when a
// set-up is short (under maxExtraSetup): a short set-up is noisy, so
// extra set-ups on the repetitions' inputs follow the repetitions.
const (
	minSetups     = 11
	maxExtraSetup = time.Second
)

// extraSetups returns every set-up time of the run: the repetitions'
// and, for short set-ups, extra ones up to minSetups, whose results it
// also returns for their checks.
func extraSetups(w workload, seed int64, reps []*repResult) ([]float64, []*repResult, error) {
	var out []float64
	for _, r := range reps {
		out = append(out, r.setup.Seconds())
	}
	var extra []*repResult
	for i := 0; len(out) < minSetups && median(out) < maxExtraSetup.Seconds(); i++ {
		r, err := setupOnly(w, inputSeed(seed, i%len(reps)))
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r.setup.Seconds())
		extra = append(extra, r)
	}
	return out, extra, nil
}

// logRep prints one repetition's host figures to standard error.
func logRep(i int, r *repResult) {
	fmt.Fprintf(os.Stderr, "rep %d: setup %.3fs, timed %.3fs for %d jobs (%.1f jobs/s), %d passes (mean %.3fms), %d reads (mean %.3fms), %d failed\n",
		i, r.setup.Seconds(), r.timed.Seconds(), r.doneTimed, float64(r.doneTimed)/r.timed.Seconds(),
		len(r.passes), mean(passWalls(r)), len(r.reads), mean(readTotals(r)), r.failed)
}

// sameSim reports every way the repetitions' sim-time outcomes differ:
// one input must give the same waits, placements and kill counts in
// every repetition, traced or not, telemetry on or off.
func sameSim(reps []*repResult) []string {
	var out []string
	a := reps[0]
	for i, b := range reps[1:] {
		switch {
		case a.fingerprint != b.fingerprint:
			out = append(out, fmt.Sprintf("rep %d: per-job outcomes differ from rep 0", i+1))
		case a.epcKills != b.epcKills || a.oomKills != b.oomKills:
			out = append(out, fmt.Sprintf("rep %d: kill counts differ from rep 0", i+1))
		case !equal(a.waits, b.waits) || !equal(a.lsWaits, b.lsWaits):
			out = append(out, fmt.Sprintf("rep %d: waits differ from rep 0", i+1))
		}
	}
	return out
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// startProfile starts a CPU profile; the returned stop ends it and
// writes a heap profile next to it.
func startProfile(base string) (func() error, error) {
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		h, err := os.Create(base + ".heap.pprof")
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(h); err != nil {
			h.Close()
			return err
		}
		return h.Close()
	}, nil
}

// runAll runs every workload, each in its own process, on the seed and
// on the held-out seed, and checks that ops-dashboard's outcomes equal
// borg-day's for the same seed (reads have no side effects).
func runAll(cfg config) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	// Each child run and each cross-run comparison is one operation.
	var res result
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Printf("check failed: "+format+"\n", args...)
	}
	for _, seed := range []int64{cfg.seed, heldOutSeed} {
		prints := map[string]string{}
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				args := []string{
					"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
					"--trace", fmt.Sprint(trace), fmt.Sprintf("--profile=%t", cfg.profile && trace == 0),
				}
				fmt.Printf("== %s seed %d trace %d\n", w.name, seed, trace)
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				res.Attempted++
				if err := cmd.Run(); err != nil {
					fail("%s seed %d trace %d: %v", w.name, seed, trace, err)
				}
				var rf resultFile
				data, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace)))
				if err == nil {
					err = json.Unmarshal(data, &rf)
				}
				if err != nil {
					return false, err
				}
				if p, seen := prints[w.name]; seen {
					res.Attempted++
					if p != rf.Fingerprint {
						fail("%s seed %d: traced outcomes differ from untraced", w.name, seed)
					}
				}
				prints[w.name] = rf.Fingerprint
			}
		}
		res.Attempted++
		if prints["ops-dashboard"] != prints["borg-day"] {
			fail("seed %d: ops-dashboard outcomes %s differ from borg-day %s",
				seed, prints["ops-dashboard"], prints["borg-day"])
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}
