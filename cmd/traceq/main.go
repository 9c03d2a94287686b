// Command traceq queries a decision trace written by prefetchsim
// -trace-out (JSON lines, internal/obs). It prints the run rollups the
// raw event stream buries: per-kind event counts, per-client round and
// queue-delay statistics, λ trajectories, and per-client wasted-prefetch
// attribution down to the predictor candidate probability that caused
// each speculation. With -chrome it additionally converts the trace
// into the Chrome trace-event format Perfetto and chrome://tracing
// open directly:
//
//	traceq run.jsonl
//	traceq -top 10 run.jsonl
//	traceq -chrome run.chrome.json run.jsonl
//
// Everything is computed from the trace alone, so traceq works on any
// trace regardless of which mode or harness produced it. Output is
// deterministic: same trace in, same bytes out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"

	"prefetch/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceq:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceq", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		chromeOut = fs.String("chrome", "", "write a Chrome trace-event (Perfetto) timeline to this file")
		top       = fs.Int("top", 5, "rows per wasted-page attribution table")
		force     = fs.Bool("force", false, "overwrite an existing -chrome output file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: traceq [flags] trace.jsonl")
	}
	if *top < 1 {
		return fmt.Errorf("-top must be >= 1 (got %d)", *top)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty trace", fs.Arg(0))
	}

	if *chromeOut != "" {
		if err := writeChrome(*chromeOut, *force, events); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote Chrome trace to %s\n\n", *chromeOut)
	}

	printSummary(out, events)
	printFleet(out, events)
	printRounds(out, events)
	printQueues(out, events)
	printLambda(out, events)
	printWasted(out, events, *top)
	return nil
}

func writeChrome(path string, force bool, events []obs.Event) error {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("%s already exists (pass -force to overwrite)", path)
	}
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientIDs returns the sorted client ids present in the trace
// (excluding server-side events).
func clientIDs(events []obs.Event) []int {
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Client >= 0 {
			seen[ev.Client] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// trackNames maps client id to its track note, when the harness named
// the tracks (prefetch-only/cache/session modes map policies to tracks).
func trackNames(events []obs.Event) map[int]string {
	names := map[int]string{}
	for _, ev := range events {
		if ev.Kind == obs.KindTrack && ev.Note != "" {
			names[ev.Client] = ev.Note
		}
	}
	return names
}

// clientLabel renders "client N" or "client N (name)".
func clientLabel(id int, names map[int]string) string {
	if name := names[id]; name != "" {
		return fmt.Sprintf("c%d %s", id, name)
	}
	return fmt.Sprintf("c%d", id)
}

func printSummary(out io.Writer, events []obs.Event) {
	counts := map[obs.Kind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	end := events[len(events)-1].T
	for _, ev := range events {
		if ev.T > end {
			end = ev.T
		}
	}
	fmt.Fprintf(out, "%d events over %.4g simulated time units, %d clients\n\n",
		len(events), end, len(clientIDs(events)))
	fmt.Fprintf(out, "%-16s %8s\n", "event", "count")
	for _, k := range obs.Kinds() {
		if counts[k] > 0 {
			fmt.Fprintf(out, "%-16s %8d\n", k, counts[k])
		}
	}
}

// replicaStats aggregates one replica's routing and failure events.
type replicaStats struct {
	routed   int
	demand   int
	fails    int
	recovers int
	lost     int64
	downtime float64
	downAt   float64
	down     bool
}

// printFleet rolls a fleet trace up per replica: placements, failure
// churn, lost transfers and downtime reconstructed from the fail/recover
// timestamps. Traces without fleet events print nothing.
func printFleet(out io.Writer, events []obs.Event) {
	per := map[int]*replicaStats{}
	stat := func(id int) *replicaStats {
		s := per[id]
		if s == nil {
			s = &replicaStats{}
			per[id] = s
		}
		return s
	}
	var reroutes int
	end := events[len(events)-1].T
	for _, ev := range events {
		if ev.T > end {
			end = ev.T
		}
		switch ev.Kind {
		case obs.KindRoute:
			s := stat(ev.Replica)
			s.routed++
			if ev.Demand {
				s.demand++
			}
		case obs.KindReRoute:
			reroutes++
			s := stat(ev.Replica)
			s.routed++
			s.demand++
		case obs.KindReplicaFail:
			s := stat(ev.Replica)
			s.fails++
			s.lost += int64(ev.Queued)
			s.downAt = ev.T
			s.down = true
		case obs.KindReplicaRecover:
			s := stat(ev.Replica)
			s.recovers++
			if s.down {
				s.downtime += ev.T - s.downAt
				s.down = false
			}
		}
	}
	if len(per) == 0 {
		return
	}
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(out, "\nfleet (from route/replica events)\n%-10s %8s %9s %7s %9s %7s %10s\n",
		"replica", "routed", "demand%", "fails", "recovers", "lost", "downtime")
	for _, id := range ids {
		s := per[id]
		if s.down { // still down at end of trace
			s.downtime += end - s.downAt
			s.down = false
		}
		demandPct := 0.0
		if s.routed > 0 {
			demandPct = 100 * float64(s.demand) / float64(s.routed)
		}
		fmt.Fprintf(out, "%-10d %8d %8.1f%% %7d %9d %7d %10.2f\n",
			id, s.routed, demandPct, s.fails, s.recovers, s.lost, s.downtime)
	}
	if reroutes > 0 {
		fmt.Fprintf(out, "%d demand fetches re-routed by failures\n", reroutes)
	}
}

// roundStats aggregates round_end events for one client.
type roundStats struct {
	rounds  int
	access  float64
	demand  int
	viewing float64
	views   int
}

func printRounds(out io.Writer, events []obs.Event) {
	per := map[int]*roundStats{}
	stat := func(c int) *roundStats {
		s := per[c]
		if s == nil {
			s = &roundStats{}
			per[c] = s
		}
		return s
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindRoundStart:
			s := stat(ev.Client)
			s.viewing += ev.Viewing
			s.views++
		case obs.KindRoundEnd:
			s := stat(ev.Client)
			s.rounds++
			s.access += ev.Access
			if ev.Demand {
				s.demand++
			}
		}
	}
	if len(per) == 0 {
		return
	}
	names := trackNames(events)
	fmt.Fprintf(out, "\nrounds\n%-24s %8s %10s %10s %10s\n",
		"client", "rounds", "mean T", "demand%", "mean view")
	var tot roundStats
	for _, id := range clientIDs(events) {
		s := per[id]
		if s == nil || s.rounds == 0 {
			continue
		}
		tot.rounds += s.rounds
		tot.access += s.access
		tot.demand += s.demand
		tot.viewing += s.viewing
		tot.views += s.views
		fmt.Fprintf(out, "%-24s %8d %10.4f %9.1f%% %10.4f\n",
			clientLabel(id, names), s.rounds, s.access/float64(s.rounds),
			100*float64(s.demand)/float64(s.rounds), s.viewing/float64(max(s.views, 1)))
	}
	if tot.rounds > 0 {
		fmt.Fprintf(out, "%-24s %8d %10.4f %9.1f%% %10.4f\n",
			"all", tot.rounds, tot.access/float64(tot.rounds),
			100*float64(tot.demand)/float64(tot.rounds), tot.viewing/float64(max(tot.views, 1)))
	}
}

func printQueues(out io.Writer, events []obs.Event) {
	reg := obs.NewRegistry()
	for _, ev := range events {
		reg.Accumulate(ev)
	}
	if reg.Counter("events."+string(obs.KindDequeue)) == 0 {
		return
	}
	fmt.Fprintf(out, "\nqueue delay (from sq_dequeue)\n")
	for _, class := range []string{"queue_wait_demand", "queue_wait_spec"} {
		h := reg.Histogram(class, obs.DefaultLatencyBounds())
		if h.N() == 0 {
			continue
		}
		fmt.Fprintf(out, "%-18s n=%d mean=%.4f\n", class, h.N(), h.Mean())
		bounds, counts := h.Bounds(), h.Counts()
		for i, c := range counts {
			if c == 0 {
				continue
			}
			label := "+inf"
			if i < len(bounds) {
				label = fmt.Sprintf("%v", bounds[i])
			}
			fmt.Fprintf(out, "  le %-6s %8d\n", label, c)
		}
	}
}

// lambdaStats tracks one client's λ trajectory.
type lambdaStats struct {
	n           int
	first, last float64
	min, max    float64
	sum         float64
}

func printLambda(out io.Writer, events []obs.Event) {
	per := map[int]*lambdaStats{}
	for _, ev := range events {
		if ev.Kind != obs.KindLambda {
			continue
		}
		s := per[ev.Client]
		if s == nil {
			s = &lambdaStats{first: ev.Lambda, min: ev.Lambda, max: ev.Lambda}
			per[ev.Client] = s
		}
		s.n++
		s.last = ev.Lambda
		s.sum += ev.Lambda
		if ev.Lambda < s.min {
			s.min = ev.Lambda
		}
		if ev.Lambda > s.max {
			s.max = ev.Lambda
		}
	}
	if len(per) == 0 {
		return
	}
	names := trackNames(events)
	fmt.Fprintf(out, "\nlambda trajectory\n%-24s %8s %8s %8s %8s %8s %8s\n",
		"client", "updates", "first", "last", "min", "max", "mean")
	for _, id := range clientIDs(events) {
		s := per[id]
		if s == nil {
			continue
		}
		fmt.Fprintf(out, "%-24s %8d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			clientLabel(id, names), s.n, s.first, s.last, s.min, s.max, s.sum/float64(s.n))
	}
}

// wastedPage aggregates the wasted speculations of one page for one
// client: how often it was fetched in vain and at what predicted
// probability the planner believed in it.
type wastedPage struct {
	page  int
	count int
	prob  float64
}

func printWasted(out io.Writer, events []obs.Event, top int) {
	type clientWaste struct {
		wasted, useful int
		wastedProb     float64
		pages          map[int]*wastedPage
	}
	per := map[int]*clientWaste{}
	stat := func(c int) *clientWaste {
		s := per[c]
		if s == nil {
			s = &clientWaste{pages: map[int]*wastedPage{}}
			per[c] = s
		}
		return s
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSpecUseful:
			stat(ev.Client).useful++
		case obs.KindSpecWasted:
			s := stat(ev.Client)
			s.wasted++
			s.wastedProb += ev.Prob
			p := s.pages[ev.Page]
			if p == nil {
				p = &wastedPage{page: ev.Page}
				s.pages[ev.Page] = p
			}
			p.count++
			p.prob += ev.Prob
		}
	}
	if len(per) == 0 {
		return
	}
	names := trackNames(events)
	fmt.Fprintf(out, "\nwasted prefetches (cause = predictor candidate probability)\n")
	for _, id := range clientIDs(events) {
		s := per[id]
		if s == nil || s.wasted+s.useful == 0 {
			continue
		}
		meanProb := 0.0
		if s.wasted > 0 {
			meanProb = s.wastedProb / float64(s.wasted)
		}
		fmt.Fprintf(out, "%-24s %d wasted / %d resolved (%.1f%%), mean cand prob %.3f\n",
			clientLabel(id, names), s.wasted, s.wasted+s.useful,
			100*float64(s.wasted)/float64(s.wasted+s.useful), meanProb)
		pages := make([]*wastedPage, 0, len(s.pages))
		for _, p := range s.pages {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(i, j int) bool {
			if pages[i].count != pages[j].count {
				return pages[i].count > pages[j].count
			}
			return pages[i].page < pages[j].page
		})
		if len(pages) > top {
			pages = pages[:top]
		}
		for _, p := range pages {
			fmt.Fprintf(out, "  page %-6d wasted %3d times, mean cand prob %.3f\n",
				p.page, p.count, p.prob/float64(p.count))
		}
	}
}
