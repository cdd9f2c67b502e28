// Command benchmark is the repo's one performance benchmark: five named
// workloads, every metric printed by name with unit and sample count, the
// outputs checked, and a machine-readable result on the last line of
// standard output. README.md says what each number means and which clock
// it uses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// options are the benchmark's own flags; the program under test gets only
// the inputs generated from seed.
type options struct {
	seed   int64
	budget time.Duration // host time one workload may measure for
	reps   int           // fixed repetition count; 0 = as many as fit the budget
	smoke  bool
	trace  bool
	outDir string
}

// minReps keeps a median meaningful when the budget is short.
const minReps = 3

// workloadDef is one named workload: rep runs one repetition (fresh
// deployment, set-up, timed window, verification), layers the traced
// run's per-layer metrics.
type workloadDef struct {
	name, why string
	// virtual: the timed window runs in virtual time, so repetitions of one
	// seed must agree exactly on everything but the host meters.
	virtual bool
	rep     func(o options, tr *tracer) (rep, error)
	layers  func(o options, traced rep, tr *tracer) (map[string]float64, error)
}

func workloads() []workloadDef {
	why := map[string]string{
		"set-repl":      "paper Fig 11: pure SET, 1 master + 3 slaves; the write path (offload doorbell, NIC fan-out, slave apply) does most of the work",
		"get-host":      "paper Fig 13: pure GET on the same deployment; bypasses replstream, core and consistency, so replication work must not move it",
		"cluster-mixed": "2 masters x 1 slave, 4 shards, 2 listeners, batched replication, 50/50 Zipfian: the same layers used differently",
		"quorum-set":    "set-repl with quorum W=2 acknowledgments: latency-bound on the NIC gate and slave ack round trip, not CPU-bound",
		"net-loopback":  "the real netserver over 127.0.0.1, 1 connection x pipeline 16, 50/50: sockets, syscalls and the mutex; bypasses the simulator",
	}
	var ws []workloadDef
	for _, w := range simWorkloads {
		ws = append(ws, workloadDef{name: w.name, why: why[w.name], virtual: true, rep: w.rep, layers: w.layers})
	}
	return append(ws, workloadDef{name: "net-loopback", why: why["net-loopback"], rep: netRep, layers: netLayers})
}

// result is one workload's outcome.
type result struct {
	workload  string
	correct   bool
	problems  []string
	attempted uint64
	failed    uint64
	reps      int
	refMs     float64 // median reference kernel time beside the windows
	e2e       map[string]sample
	layers    map[string]sample // traced run only
}

func nsPerOp(r rep) float64 { return float64(r.host.cpu.Nanoseconds()) / float64(r.ops) }

// runWorkload runs repetitions until the budget is spent, checks them, and
// folds them into the end-to-end metrics: medians over repetitions (on a
// sim workload the virtual numbers are identical in every repetition, so
// their median is that number).
func runWorkload(w workloadDef, o options) result {
	res := result{workload: w.name, correct: true}
	fail := func(format string, args ...any) {
		res.correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	budget := o.budget
	if o.trace {
		budget /= 2 // the traced repetition and the replays take the rest
	}
	var reps []rep
	start := time.Now()
	for len(reps) < o.reps || (o.reps == 0 && (len(reps) < minReps || time.Since(start) < budget)) {
		r, err := w.rep(o, nil)
		if err != nil {
			fail("repetition %d: %v", len(reps), err)
			if r.ops == 0 {
				break
			}
		}
		reps = append(reps, r)
		res.attempted += r.ops
		res.failed += r.failed
	}
	res.reps = len(reps)
	if len(reps) == 0 {
		res.attempted = 1 // the repetition itself was attempted and failed
		res.failed = 1
		return res
	}
	if res.failed != 0 {
		fail("%d of %d operations failed", res.failed, res.attempted)
	}
	if w.virtual {
		for i, r := range reps[1:] {
			a := reps[0]
			if r.ops != a.ops || r.kops != a.kops || r.p50us != a.p50us || r.p99us != a.p99us || r.events != a.events {
				fail("repetition %d differs from repetition 0 in virtual time (ops %d/%d, events %d/%d): the simulation is not deterministic",
					i+1, r.ops, a.ops, r.events, a.events)
			}
		}
	}
	checkBypass(w.name, reps[0], fail)
	col := func(f func(rep) float64) sample {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return sample{median(vs), len(vs), slices.Min(vs), slices.Max(vs)}
	}
	// Host-clock numbers are scaled to the reference box speed: the whole
	// machine drifts by tens of percent within the hour, the reference
	// kernel with it. Virtual-time and count metrics are never scaled.
	ref := col(func(r rep) float64 { return float64(r.ref.Nanoseconds()) })
	res.refMs = ref.V / 1e6
	speed := float64(refNominal.Nanoseconds()) / ref.V
	scaled := func(s sample, f float64) sample { return sample{s.V * f, s.N, s.Lo * f, s.Hi * f} }
	latency := speed
	if w.virtual {
		latency = 1
	}
	perRepOps := int(reps[0].ops)
	res.e2e = map[string]sample{
		"kops":               {V: col(func(r rep) float64 { return r.kops }).V / latency, N: perRepOps},
		"p50_us":             {V: col(func(r rep) float64 { return r.p50us }).V * latency, N: perRepOps},
		"p99_us":             {V: col(func(r rep) float64 { return r.p99us }).V * latency, N: perRepOps},
		"host_cpu_ns_per_op": scaled(col(nsPerOp), speed),
		"host_allocs_per_op": col(func(r rep) float64 { return float64(r.host.allocs) / float64(r.ops) }),
		"host_bytes_per_op":  col(func(r rep) float64 { return float64(r.host.bytes) / float64(r.ops) }),
		"host_heap_mb":       col(func(r rep) float64 { return r.heapMB }),
		"setup_s":            scaled(col(func(r rep) float64 { return r.setupS }), speed),
	}
	if !o.trace {
		return res
	}

	tr := newTracer(w.name)
	traced, err := w.rep(o, tr)
	if err != nil {
		fail("traced repetition: %v", err)
		return res
	}
	res.attempted += traced.ops
	res.failed += traced.failed
	layers, err := w.layers(o, traced, tr)
	if err != nil {
		fail("layer replay: %v", err)
		return res
	}
	layers["host.ref_kernel_ms"] = res.refMs
	layers["trace.overhead_pct"] = (ratio(nsPerOp(traced), col(nsPerOp).V) - 1) * 100
	res.layers = map[string]sample{}
	for _, d := range perLayer {
		res.layers[d.Name] = sample{V: layers[d.Name], N: 1}
	}
	if path, err := tr.write(o.outDir); err != nil {
		fail("writing trace: %v", err)
	} else {
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	}
	return res
}

// checkBypass holds the workloads to the bypass predictions their reasons
// state: replication is idle on get-host, the consistency gate outside
// quorum-set, the slot plane's redirects outside cluster-mixed.
func checkBypass(name string, r rep, fail func(string, ...any)) {
	zero := func(keys ...string) {
		for _, k := range keys {
			if r.counts[k] != 0 {
				fail("%s: %s = %v, predicted 0", name, k, r.counts[k])
			}
		}
	}
	if r.counts == nil { // net-loopback runs none of the simulator
		return
	}
	if name == "get-host" {
		zero("counts.repl.stream.cmds", "counts.hostkv.repl_reqs", "counts.nickv.gate.queued")
	}
	if name != "quorum-set" {
		zero("consistency.parked_per_write")
	}
	if name != "cluster-mixed" {
		zero("slots.moved_per_kop")
	}
}

func printTable(res result, o options) {
	status := "correct"
	if !res.correct {
		status = "INCORRECT"
	}
	fmt.Printf("\n== %s: %d repetitions, %d ops attempted, %d failed, %s ==\n",
		res.workload, res.reps, res.attempted, res.failed, status)
	fmt.Printf("box speed: reference kernel %.1f ms (nominal %.1f): host-clock end-to-end numbers scaled by %.3f\n",
		res.refMs, float64(refNominal.Microseconds())/1e3, float64(refNominal.Microseconds())/1e3/res.refMs)
	for _, p := range res.problems {
		fmt.Printf("problem: %s\n", p)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	row := func(defs []metricDef, vals map[string]sample) {
		for _, d := range defs {
			if s, ok := vals[d.Name]; ok {
				clock := d.Clock
				if clock == clockMixed {
					clock = clockVirtual
					if res.workload == "net-loopback" {
						clock = "wall"
					}
				}
				span := ""
				if s.Hi > s.Lo {
					span = fmt.Sprintf("median of %.6g..%.6g", s.Lo, s.Hi)
				}
				fmt.Fprintf(tw, "%s\t%.6g\t%s\tn=%d\t%s\t%s is better\t%s\n", d.Name, s.V, d.Unit, s.N, clock, d.Better, span)
			}
		}
	}
	row(endToEnd, res.e2e)
	if o.trace {
		row(perLayer, res.layers)
	}
	tw.Flush()
}

// jsonLine is the machine-readable result: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one.
func jsonLine(res result, o options) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, map[string]metric{}}
	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layers
	}
	for _, d := range defs {
		if s, ok := vals[d.Name]; ok && !math.IsNaN(s.V) && !math.IsInf(s.V, 0) {
			out.Metrics[d.Name] = metric{s.V, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// exactOnSim are the end-to-end metrics that two runs of one seed must
// agree on to 1e-4 on the sim workloads, whatever their contract bound.
var exactOnSim = map[string]bool{"kops": true, "p50_us": true, "p99_us": true, "host_allocs_per_op": true, "host_bytes_per_op": true}

// selfcheck runs the suite twice back to back and holds every (metric,
// workload) pair of the second run to its bound against the first.
func selfcheck(ws []workloadDef, o options) bool {
	var runs [2][]result
	for i := range runs {
		for _, w := range ws {
			res := runWorkload(w, o)
			printTable(res, o)
			runs[i] = append(runs[i], res)
		}
	}
	fmt.Printf("\n== selfcheck: second run against first, same code, same seed ==\n")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t\n")
	ok := true
	for wi, w := range ws {
		a, b := runs[0][wi], runs[1][wi]
		if !a.correct || !b.correct {
			ok = false
		}
		for _, d := range endToEnd {
			x, y := a.e2e[d.Name].V, b.e2e[d.Name].V
			worse := ratio(y-x, x)
			if d.Better == "higher" {
				worse = -worse
			}
			bound, verdict := d.Bound, ""
			if w.virtual && exactOnSim[d.Name] {
				bound, worse = 1e-4, math.Abs(worse)
			}
			if worse > bound {
				ok, verdict = false, "BREACH"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.3f%%\t%.2f%%\t%s\n", w.name, d.Name, x, y, worse*100, bound*100, verdict)
		}
	}
	tw.Flush()
	return ok
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	var name string
	var check bool
	flag.StringVar(&name, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&seconds, "seconds", 10, "host seconds one workload measures for")
	flag.IntVar(&o.reps, "reps", 0, "fixed repetitions per workload (0 = as many as fit -seconds, at least 3)")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced repetition and layer replays and reports per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "1 repetition of 5 ms windows: proves every path runs, measures nothing")
	flag.BoolVar(&check, "selfcheck", false, "run the suite twice and compare every metric against its bound")
	flag.StringVar(&o.outDir, "out", "out", "directory the span files are written to")
	flag.Parse()
	if flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-reps n] [-smoke] [-selfcheck]")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.budget = time.Duration(seconds * float64(time.Second))
	if o.smoke {
		o.reps = 1
	}
	all := workloads()
	var ws []workloadDef
	for _, w := range all {
		if name == "all" || name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		var names []string
		for _, w := range all {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", name, strings.Join(names, ", "))
		os.Exit(2)
	}
	fmt.Printf("skv benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d budget=%s/workload reps=%d smoke=%v trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.budget, o.reps, o.smoke, o.trace)

	if check {
		if !selfcheck(ws, o) {
			os.Exit(1)
		}
		return
	}
	ok := true
	var lines []string
	for _, w := range ws {
		res := runWorkload(w, o)
		printTable(res, o)
		ok = ok && res.correct
		lines = append(lines, jsonLine(res, o))
	}
	// One result object per workload; with -workload <name> the last line
	// of standard output is that workload's object.
	fmt.Println()
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		os.Exit(1)
	}
}
