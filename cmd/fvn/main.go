// Command fvn is the Formally Verifiable Networking toolchain: it drives
// NDlog programs around the pipeline of Figure 1 of the paper —
// translation to logical specifications (arc 4), theorem proving (arc 5),
// distributed execution (arc 7), linear-logic model checking (arcs 6/8),
// and the metarouting obligation engine (§3.3).
//
// Usage:
//
//	fvn translate <file.ndlog>          print the PVS-style theory
//	fvn verify <file.ndlog> -theorem T [-script S | -auto]
//	fvn run <file.ndlog> -topo ring:5 [-pred bestPath] [-maxtime N]
//	fvn chaos [-topo ring:8] [-n 50]    randomized fault campaign + invariants
//	fvn mc <file.ndlog>                 quiescence-check the transition system
//	fvn algebra [-name addA]            discharge metarouting obligations
//	fvn demo                            the paper's §3.1 experiment end to end
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/linear"
	"repro/internal/metarouting"
	"repro/internal/modelcheck"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/translate"
	"repro/internal/verify"
)

// stdout is the output sink of the subcommands; tests swap it for a
// buffer to assert on rendered reports.
var stdout io.Writer = os.Stdout

// Exit codes. Every path out of main funnels through fvnMain so the
// mapping below is the whole contract — scripts can rely on it.
const (
	exitOK           = 0 // command succeeded; all checks passed / proofs closed
	exitFailed       = 1 // a definite negative: violation found, proof failed, or an error
	exitUsage        = 2 // bad command line
	exitInconclusive = 3 // bounded or cancelled before an answer: timeout, ctrl-c, state cap
)

// errUsage marks command-line errors (exit 2); errInconclusive marks
// runs stopped by a deadline, cancellation, or a state bound before a
// definite verdict (exit 3) — deliberately distinct from failure, so a
// timed-out check is never mistaken for a passing or failing one.
var (
	errUsage        = errors.New("usage")
	errInconclusive = errors.New("inconclusive")
)

func main() {
	os.Exit(fvnMain(os.Args[1:]))
}

// fvnMain dispatches the subcommand and maps its error to an exit code —
// the single exit path of the CLI.
func fvnMain(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	var err error
	switch args[0] {
	case "translate":
		err = cmdTranslate(args[1:])
	case "verify":
		if hasFlag(args[1:], "suite") {
			err = cmdVerifySuite(args[1:])
		} else {
			err = cmdVerify(args[1:])
		}
	case "run":
		err = cmdRun(args[1:])
	case "chaos":
		err = cmdChaos(args[1:])
	case "why":
		err = cmdWhy(args[1:])
	case "why-not", "whynot":
		err = cmdWhyNot(args[1:])
	case "mc":
		err = cmdMC(args[1:])
	case "algebra":
		err = cmdAlgebra(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "demo":
		err = cmdDemo(args[1:])
	default:
		usage()
		return exitUsage
	}
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, flag.ErrHelp):
		return exitUsage
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "fvn:", err)
		return exitUsage
	case errors.Is(err, errInconclusive), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "fvn:", err)
		return exitInconclusive
	default:
		fmt.Fprintln(os.Stderr, "fvn:", err)
		return exitFailed
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fvn <translate|verify|run|chaos|why|why-not|mc|algebra|serve|demo> [flags]
  translate <file.ndlog>                     print the logical specification
  verify <file.ndlog> -theorem T [-script F | -auto]
  verify -suite [-workers N] [-cache=false]
                                             discharge the full obligation suite
  run <file.ndlog> -topo <line|ring|grid|clique|star|tree|rand|pa|fattree>:<n>
      [-pred P] [-loss R] [-dup R] [-delay-jitter J] [-fault-plan F.json]
      [-seed N] [-prov] [-scalar-delete]
  chaos [file.ndlog] [-topo ring:8] [-n 50] [-seed N] [-hard] [-scalar-delete]
      [-prov] [-json]
      [-replay-seed N | -plan F.json]        fault campaign + invariant checks
  why [file.ndlog] -tuple 'bestPathCost(n0,n1,1)' [-topo ring:6] [-json]
                                             derivation tree of a tuple
  why-not [file.ndlog] -tuple 'pred(...)' [-topo ring:6] [-json]
                                             why a tuple is absent
  mc <file.ndlog>                            explore the transition system
  algebra [-name NAME]                       metarouting obligation discharge
  serve [-addr HOST:PORT] [-cache-file F]    HTTP verification service
  demo                                       the §3.1 bestPathStrong experiment
every executing/proving subcommand also takes --explain, --trace FILE, and
--timeout D (exit codes: 0 ok, 1 violated/failed, 2 usage, 3 inconclusive)`)
}

func loadProtocol(args []string) (*core.Protocol, []string, error) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return nil, nil, fmt.Errorf("%w: expected an .ndlog file argument", errUsage)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, nil, err
	}
	p, err := core.FromNDlog(args[0], string(src))
	if err != nil {
		return nil, nil, err
	}
	return p, args[1:], nil
}

// parseCmd parses a subcommand's flags, which may appear before and/or
// after the single positional .ndlog file argument (Go's flag package
// stops at the first non-flag, so `fvn run --explain f.ndlog` and
// `fvn run f.ndlog --explain` must both work). It returns the loaded
// protocol.
func parseCmd(fs *flag.FlagSet, args []string) (*core.Protocol, error) {
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return nil, fmt.Errorf("%w: expected an .ndlog file argument", errUsage)
	}
	file := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	p, _, err := loadProtocol([]string{file})
	return p, err
}

func cmdTranslate(args []string) error {
	p, _, err := loadProtocol(args)
	if err != nil {
		return err
	}
	if err := p.Specify(translate.Options{TheoremsForAggregates: true}); err != nil {
		return err
	}
	fmt.Print(p.PVS())
	return nil
}

// hasFlag reports whether args contains -name or --name (with or without
// a =value suffix), so suite mode can be routed before the positional
// .ndlog argument is required.
func hasFlag(args []string, name string) bool {
	for _, a := range args {
		a = strings.TrimPrefix(a, "-")
		a = strings.TrimPrefix(a, "-")
		if a == name || strings.HasPrefix(a, name+"=") {
			return true
		}
	}
	return false
}

// cmdVerifySuite discharges the standard proof-obligation suite — the
// path-vector proof corpus, the component-model preservation theorems, and
// the metarouting algebra laws — on the parallel pipeline.
func cmdVerifySuite(args []string) error {
	fs := flag.NewFlagSet("verify -suite", flag.ContinueOnError)
	fs.Bool("suite", true, "run the standard obligation suite")
	workers := fs.Int("workers", 1, "concurrent obligation discharge")
	cacheOn := fs.Bool("cache", true, "reuse results for identical obligations")
	cacheFile := fs.String("cache-file", "", "persistent result cache (JSONL; shared across runs and with `fvn serve`)")
	var of obsFlags
	of.register(fs, false)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	ctx, cancel := of.context()
	defer cancel()
	obls, err := verify.StandardSuite()
	if err != nil {
		return err
	}
	tracer, closeTrace, err := of.tracer()
	if err != nil {
		return err
	}
	var persist *cache.Store
	if *cacheFile != "" {
		if persist, err = cache.Open(*cacheFile); err != nil {
			return err
		}
		defer persist.Close()
	}
	col := obs.NewCollector()
	pl := verify.NewPipeline(verify.Options{
		Workers: *workers,
		Cache:   *cacheOn,
		Persist: persist,
		Col:     col,
		Tracer:  tracer,
	})
	rep := pl.Run(ctx, obls)
	rep.WriteTable(stdout)
	if of.Explain {
		obs.WriteObligationExplain(stdout, col)
		obs.WriteTacticExplain(stdout, col)
	}
	if err := closeTrace(); err != nil {
		return err
	}
	if rep.Cancelled {
		return fmt.Errorf("%w: suite cancelled with %d/%d obligations discharged",
			errInconclusive, rep.Proved(), len(obls))
	}
	if !rep.AllProved() {
		return fmt.Errorf("%d obligations failed", rep.Failed())
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	theorem := fs.String("theorem", "", "theorem name")
	script := fs.String("script", "", "proof script file")
	auto := fs.Bool("auto", false, "use the automated strategy (grind)")
	var of obsFlags
	of.register(fs, false)
	p, err := parseCmd(fs, args)
	if err != nil {
		return err
	}
	if err := p.Specify(translate.Options{TheoremsForAggregates: true}); err != nil {
		return err
	}
	if *theorem == "" {
		return fmt.Errorf("%w: -theorem is required; available: %v", errUsage, theoremNames(p))
	}
	ctx, cancel := of.context()
	defer cancel()
	tracer, closeTrace, err := of.tracer()
	if err != nil {
		return err
	}
	col := obs.NewCollector()
	pr, err := prover.New(p.Theory, *theorem)
	if err != nil {
		return err
	}
	pr.Instrument(col, tracer)
	body := verify.DefaultScript // the automated strategy: skosimp* then grind (arc 5)
	if !*auto {
		if *script == "" {
			return fmt.Errorf("%w: provide -script or -auto", errUsage)
		}
		data, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		body = string(data)
	}
	runErr := pr.RunScriptCtx(ctx, body)
	if runErr != nil && !errors.Is(runErr, prover.ErrCancelled) {
		return runErr
	}
	r := pr.Summary()
	report(r.QED, *theorem, r.Steps, r.PrimSteps, r.AutomationRatio(), r.Elapsed.Seconds())
	if of.Explain {
		obs.WriteTacticExplain(stdout, col)
	}
	if err := closeTrace(); err != nil {
		return err
	}
	if errors.Is(runErr, prover.ErrCancelled) {
		return fmt.Errorf("%w: proof cancelled after %d steps with %d goals open",
			errInconclusive, r.Steps, r.OpenGoals)
	}
	if !r.QED {
		return fmt.Errorf("%d goals remain open", r.OpenGoals)
	}
	return nil
}

func theoremNames(p *core.Protocol) []string {
	var out []string
	if p.Theory == nil {
		return out
	}
	for _, t := range p.Theory.Theorems {
		out = append(out, t.Name)
	}
	return out
}

func report(qed bool, theorem string, steps, prim int, auto float64, secs float64) {
	status := "QED"
	if !qed {
		status = "OPEN"
	}
	fmt.Printf("%s %s: %d proof steps (%d primitive, %.0f%% automated) in %.3fs\n",
		status, theorem, steps, prim, auto*100, secs)
}

// parseTopo builds the topology a spec like ring:5, grid:3 (3x3),
// pa:10000 (preferential-attachment ISP-like graph) or fattree:8 names
// (see netgraph.ParseSpec).
func parseTopo(spec string) (*netgraph.Topology, error) {
	s, err := netgraph.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build(), nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	topoSpec := fs.String("topo", "ring:4", "topology spec, e.g. ring:5")
	pred := fs.String("pred", "", "predicate to dump after the run")
	maxTime := fs.Float64("maxtime", 10000, "simulated time bound")
	loss := fs.Float64("loss", 0, "per-link message loss rate (default fault channel)")
	dup := fs.Float64("dup", 0, "per-link message duplication rate (default fault channel)")
	jitter := fs.Float64("delay-jitter", 0, "max extra per-message delay, uniform (default fault channel)")
	planPath := fs.String("fault-plan", "", "apply a declarative fault plan (JSON file)")
	seed := fs.Uint64("seed", 0, "PRNG seed for scan shuffle and fault channels")
	reliable := fs.Bool("reliable", false, "ack/retransmit message delivery with capped exponential backoff")
	ckptEvery := fs.Float64("checkpoint-every", 0, "checkpoint base tables every N time units (0: off); restarts restore the last checkpoint")
	antiEntropy := fs.Bool("anti-entropy", false, "digest-exchange repair after restarts and partition heals")
	scalarDelete := fs.Bool("scalar-delete", false, "force the pre-cascade deletion oracle: deletions remove only the named tuple, stale state drains by soft-state expiry")
	var of obsFlags
	of.register(fs, true)
	p, err := parseCmd(fs, args)
	if err != nil {
		return err
	}
	topo, err := parseTopo(*topoSpec)
	if err != nil {
		return err
	}
	tracer, closeTrace, err := of.tracer()
	if err != nil {
		return err
	}
	opts := dist.Options{
		MaxTime:           *maxTime,
		Seed:              *seed,
		LoadTopologyLinks: true,
		Reliable:          *reliable,
		CheckpointEvery:   *ckptEvery,
		AntiEntropy:       *antiEntropy,
		ScalarDelete:      *scalarDelete,
		Trace:             tracer,
		Prov:              of.recorder(),
	}
	if of.Explain {
		// An external collector switches on per-rule eval timing.
		opts.Obs = obs.NewCollector()
	}
	net, err := p.Execute(topo, opts)
	if err != nil {
		return err
	}
	// The noise flags set the plan's default channel; a plan file's own
	// default channel wins.
	plan := &faults.Plan{}
	if *planPath != "" {
		data, err := os.ReadFile(*planPath)
		if err != nil {
			return err
		}
		if plan, err = faults.Parse(data); err != nil {
			return err
		}
	}
	if plan.Default.Zero() {
		plan.Default = faults.Channel{Loss: *loss, Dup: *dup, Jitter: *jitter}
	}
	if err := net.ApplyPlan(plan); err != nil {
		return err
	}
	ctx, cancel := of.context()
	defer cancel()
	res, err := net.RunCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converged=%v time=%.1f messages=%d derivations=%d route-changes=%d flips=%d\n",
		res.Converged, res.Time, res.Stats.MessagesSent, res.Stats.Derivations,
		res.Stats.RouteChanges, res.Stats.Flips)
	if *reliable || *ckptEvery > 0 || *antiEntropy {
		fmt.Fprintf(stdout, "selfheal: retransmits=%d acks=%d give-ups=%d checkpoints=%d restores=%d repair-pulls=%d\n",
			res.Stats.Retransmits, res.Stats.Acks, res.Stats.RelGiveUps,
			res.Stats.Checkpoints, res.Stats.Restores, res.Stats.RepairPulls)
	}
	if res.Cancelled {
		closeTrace()
		return fmt.Errorf("%w: run cancelled at simulated time %.1f (%d messages processed)",
			errInconclusive, res.Time, res.Stats.MessagesDelivered)
	}
	if rec := net.Prov(); rec.Enabled() {
		fmt.Fprintf(stdout, "provenance: %d entries recorded (inspect with `fvn why`)\n", rec.Len())
		if opts.Obs != nil {
			rec.RecordMetrics(opts.Obs)
		}
	}
	if of.Explain {
		net.Explain(stdout, p.Name)
	}
	if *pred != "" {
		fmt.Fprint(stdout, net.Snapshot(*pred))
	}
	return closeTrace()
}

// cmdChaos runs a randomized fault campaign (or replays one run of it)
// and checks the safety/liveness/conservation invariants after every
// run. A nonzero exit means at least one invariant was violated.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	topoSpec := fs.String("topo", "ring:8", "topology spec, e.g. ring:8")
	runs := fs.Int("n", 20, "number of campaign runs")
	seed := fs.Uint64("seed", 1, "campaign base seed (run i uses Mix(seed, i))")
	replay := fs.Uint64("replay-seed", 0, "replay exactly the run with this seed (from a failure report)")
	planPath := fs.String("plan", "", "run one explicit fault plan (JSON file) instead of generating")
	hard := fs.Bool("hard", false, "skip the soft-state rewrite (negative control: expected to fail under link faults)")
	horizon := fs.Float64("horizon", 0, "generated-plan fault horizon (0: generator default)")
	crashes := fs.Int("crashes", 0, "generated-plan crash/restart cycles per run (0: generator default)")
	jsonOut := fs.Bool("json", false, "print each run's report as one machine-readable JSON line")
	reliable := fs.Bool("reliable", false, "ack/retransmit message delivery with capped exponential backoff")
	ckptEvery := fs.Float64("checkpoint-every", 0, "checkpoint base tables every N time units (0: off); restarts restore the last checkpoint")
	antiEntropy := fs.Bool("anti-entropy", false, "digest-exchange repair after restarts and partition heals")
	scalarDelete := fs.Bool("scalar-delete", false, "force the pre-cascade deletion oracle in every run (forced on anyway under -hard)")
	var of obsFlags
	of.register(fs, true)
	// The program source is an optional positional .ndlog file; the
	// paper's path-vector protocol is the default subject.
	src, err := parseOptionalSrc(fs, args, core.PathVectorSrc)
	if err != nil {
		return err
	}
	ctx, cancel := of.context()
	defer cancel()
	tracer, closeTrace, err := of.tracer()
	if err != nil {
		return err
	}
	defer closeTrace()
	gen := faults.DefaultGenOptions()
	if *horizon > 0 {
		gen.Horizon = *horizon
	}
	if *crashes > 0 {
		gen.Crashes = *crashes
	}
	opts := dist.DefaultChaosOptions()
	opts.Hard = *hard
	opts.ScalarDelete = *scalarDelete
	opts.Reliable = *reliable
	opts.CheckpointEvery = *ckptEvery
	opts.AntiEntropy = *antiEntropy
	opts.Trace = tracer
	if of.Explain {
		opts.Obs = obs.NewCollector()
	}
	spec, err := netgraph.ParseSpec(*topoSpec)
	if err != nil {
		return err
	}
	c := &dist.Campaign{
		Source:   src,
		Topo:     spec.Build,
		Runs:     *runs,
		BaseSeed: *seed,
		Gen:      gen,
		Opts:     opts,
		Prov:     of.Prov,
	}

	reportOne := func(rep *dist.ChaosReport) error {
		if *jsonOut {
			fmt.Fprintf(stdout, "%s\n", rep.JSON())
		} else {
			fmt.Fprintf(stdout, "seed %d  %s\n", rep.Seed, rep.Plan.Summary())
			fmt.Fprintf(stdout, "  live=%d msgs=%d dup=%d drop=%d crash=%d restart=%d checked-at=%.1f\n",
				len(rep.Live), rep.Stats.MessagesSent, rep.Stats.MessagesDuplicated,
				rep.Stats.MessagesDropped, rep.Stats.Crashes, rep.Stats.Restarts, rep.CheckedAt)
			if rep.RecoveryMS != nil {
				fmt.Fprintf(stdout, "  recovery: %d samples p50=%.0fms p95=%.0fms max=%.0fms unrecovered=%d\n",
					rep.RecoveryMS.Samples, rep.RecoveryMS.P50, rep.RecoveryMS.P95,
					rep.RecoveryMS.Max, rep.RecoveryMS.Unrecovered)
			}
		}
		if of.Explain && opts.Obs != nil {
			obs.WriteMetrics(stdout, opts.Obs)
		}
		if rep.Cancelled {
			return fmt.Errorf("%w: run cancelled at simulated time %.1f (invariants unchecked)",
				errInconclusive, rep.CheckedAt)
		}
		if rep.Failed() {
			if !*jsonOut {
				for _, v := range rep.Violations {
					fmt.Fprintf(stdout, "  FAIL %s\n", v)
				}
				for _, rc := range rep.RootCause {
					fmt.Fprintf(stdout, "  root cause: %s\n", rc)
				}
				fmt.Fprintf(stdout, "  plan: %s\n", rep.Plan.JSON())
			}
			return fmt.Errorf("invariants violated (seed %d)", rep.Seed)
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, "  all invariants hold")
		}
		return nil
	}

	switch {
	case *planPath != "":
		data, err := os.ReadFile(*planPath)
		if err != nil {
			return err
		}
		plan, err := faults.Parse(data)
		if err != nil {
			return err
		}
		o := opts
		o.Seed = *seed
		o.Prov = of.recorder()
		topo := c.Topo()
		rep, err := dist.RunChaos(ctx, src, topo, plan, o)
		if err != nil {
			return err
		}
		return reportOne(rep)
	case *replay != 0:
		rep, err := c.RunSeed(ctx, *replay)
		if err != nil {
			return err
		}
		return reportOne(rep)
	default:
		if *jsonOut {
			// One JSON line per run, no prose — the harness-friendly mode.
			failures := 0
			for i := 0; i < *runs; i++ {
				rep, err := c.RunOne(ctx, i)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%s\n", rep.JSON())
				if rep.Cancelled {
					return fmt.Errorf("%w: campaign cancelled after %d of %d runs", errInconclusive, i, *runs)
				}
				if rep.Failed() {
					failures++
				}
			}
			if failures > 0 {
				return fmt.Errorf("campaign had %d failing runs (replay with -replay-seed)", failures)
			}
			return nil
		}
		reports, err := c.Execute(ctx, stdout)
		if err != nil {
			return err
		}
		cancelled := len(reports) < *runs
		for _, rep := range reports {
			if rep.Cancelled {
				cancelled = true
			} else if rep.Failed() {
				return fmt.Errorf("campaign had failing runs (replay with -replay-seed)")
			}
		}
		if cancelled {
			return fmt.Errorf("%w: campaign cancelled with %d of %d runs completed", errInconclusive, len(reports), *runs)
		}
		return nil
	}
}

func cmdMC(args []string) error {
	fs := flag.NewFlagSet("mc", flag.ContinueOnError)
	var maxStates int
	fs.IntVar(&maxStates, "max-states", 1<<16, "cap on admitted states (exact; a hit run is inconclusive)")
	fs.IntVar(&maxStates, "maxstates", 1<<16, "alias for -max-states")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel expansion workers (1 = sequential)")
	var of obsFlags
	of.register(fs, false)
	p, err := parseCmd(fs, args)
	if err != nil {
		return err
	}
	tracer, closeTrace, err := of.tracer()
	if err != nil {
		return err
	}
	sys, err := p.TransitionSystem(nil)
	if err != nil {
		return err
	}
	ctx, cancel := of.context()
	defer cancel()
	ts := linear.TS{Sys: sys}
	col := obs.NewCollector()
	opts := modelcheck.Options{MaxStates: maxStates, Workers: *workers, Obs: col, Trace: tracer}
	count, cres := modelcheck.CountReachable(ctx, ts, opts)
	fmt.Fprintf(stdout, "reachable states: %d (transitions %d, depth %d, %.0f states/s, workers %d)\n",
		count, cres.Stats.Transitions, cres.Stats.MaxDepth, cres.Stats.StatesPerSecond(), *workers)
	if cres.Stats.Truncated {
		fmt.Fprintf(stdout, "state bound %d hit: the count is a lower bound\n", maxStates)
	}
	if cres.Stats.Cancelled {
		closeTrace()
		return fmt.Errorf("%w: search cancelled after %d states (%d transitions) — the count is a lower bound",
			errInconclusive, cres.Stats.StatesVisited, cres.Stats.Transitions)
	}
	q := modelcheck.Quiescent(ctx, ts, opts)
	switch q.Verdict {
	case modelcheck.VerdictHolds:
		fmt.Fprintf(stdout, "quiescent state reachable in %d steps:\n  %s\n", len(q.Trace)-1, q.Witness.Display())
	case modelcheck.VerdictViolated:
		fmt.Fprintln(stdout, "no quiescent state reachable (divergence)")
	default:
		fmt.Fprintln(stdout, "quiescence inconclusive: state bound hit or search cancelled before a quiescent state was found")
	}
	if of.Explain {
		obs.WriteMetrics(stdout, col)
	}
	if err := closeTrace(); err != nil {
		return err
	}
	if q.Verdict == modelcheck.VerdictInconclusive {
		return fmt.Errorf("%w: quiescence undecided with %d states visited", errInconclusive, q.Stats.StatesVisited)
	}
	return nil
}

func cmdAlgebra(args []string) error {
	fs := flag.NewFlagSet("algebra", flag.ContinueOnError)
	name := fs.String("name", "", "algebra to discharge (default: the whole library)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algebras := metarouting.BaseAlgebras()
	algebras = append(algebras, metarouting.LpA(4), metarouting.BGPSystem(), metarouting.SafeBGPSystem())
	shown := 0
	for _, a := range algebras {
		if *name != "" && !strings.Contains(a.Name(), *name) {
			continue
		}
		fmt.Print(metarouting.Discharge(a))
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("no algebra matches %q", *name)
	}
	return nil
}

func cmdDemo(args []string) error {
	p, err := core.PathVector()
	if err != nil {
		return err
	}
	fmt.Println("== NDlog program (§2.2) ==")
	fmt.Print(p.NDlog())
	fmt.Println("\n== generated logical specification (arc 4) ==")
	fmt.Print(p.PVS())
	fmt.Println("\n== proof of bestPathStrong (§3.1) ==")
	r, err := p.Verify("bestPathStrong", core.BestPathStrongScript)
	if err != nil {
		return err
	}
	report(r.QED, "bestPathStrong", r.Steps, r.PrimSteps, r.AutomationRatio(), r.Elapsed.Seconds())
	return nil
}
