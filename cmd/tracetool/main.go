// Command tracetool queries the observability files a run writes:
// the causal-span JSONL (-spans), the trace-v2 event JSONL (-trace),
// and the waiting-resource slot profile (-slotprof).
//
//	tracetool spans -in run.spans -type extra -complete
//	tracetool latency -in run.spans -type handshake
//	tracetool slots -in run.slots
//	tracetool slots -in run.slots -ratio        # bare exploitation ratio
//	tracetool events -in run.jsonl -event mac.deliver -node 3
//	tracetool drops -in run.jsonl -top 5
//	tracetool violations -in run.jsonl -show 3
//	tracetool diff a.spans b.spans
//
// Every subcommand streams its input line by line, so multi-gigabyte
// traces work in constant memory (latency and diff buffer only the
// scalar values they aggregate).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"ewmac/internal/obs/slotprof"
	"ewmac/internal/obs/span"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage: tracetool <command> [flags]

commands:
  spans    list causal spans (filter by -node, -type, -complete)
  latency  latency percentiles and histogram over delivering spans
  slots    waiting-resource slot profile table (-ratio: bare run ratio)
  events   filter the trace-v2 event stream (-event, -node)
  drops    per-reason and per-node drop/shed counts (-top N noisiest nodes)
  violations  conformance-oracle violations by reason and node (-show N details)
  diff     compare two span files' aggregate counts

run "tracetool <command> -h" for the command's flags`)
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	var err error
	switch args[0] {
	case "spans":
		err = cmdSpans(args[1:])
	case "latency":
		err = cmdLatency(args[1:])
	case "slots":
		err = cmdSlots(args[1:])
	case "events":
		err = cmdEvents(args[1:])
	case "drops":
		err = cmdDrops(args[1:])
	case "violations":
		err = cmdViolations(args[1:])
	case "diff":
		err = cmdDiff(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown command %q\n", args[0])
		return usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		return 1
	}
	return 0
}

// scanLines streams path line by line through fn, with a 16 MB line
// budget so wide JSONL records (dense fan-out spans, big frame dumps)
// never hit bufio.Scanner's 64 KB default. A line fn rejects aborts
// the scan — unless it is the file's last line: a run killed
// mid-write commonly leaves its final line cut mid-object, and the
// complete prefix is still worth querying, so that one line is
// skipped with a warning instead.
func scanLines(path string, fn func(ln int, line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		if err := fn(ln, sc.Bytes()); err != nil {
			if sc.Scan() {
				// More lines follow: mid-file corruption, not a torn tail.
				return fmt.Errorf("%s:%d: %w", path, ln, err)
			}
			fmt.Fprintf(os.Stderr,
				"tracetool: warning: %s:%d: skipping truncated trailing line (%v)\n", path, ln, err)
			return sc.Err()
		}
	}
	return sc.Err()
}

// forEachSpan streams every span line of path (skipping the meta line)
// through fn, returning the meta line when present.
func forEachSpan(path string, fn func(*span.Span)) (*span.Meta, error) {
	var meta *span.Meta
	err := scanLines(path, func(_ int, line []byte) error {
		var s span.Span
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		if s.Type == "meta" {
			var m span.Meta
			if err := json.Unmarshal(line, &m); err == nil {
				meta = &m
			}
			return nil
		}
		fn(&s)
		return nil
	})
	return meta, err
}

func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	in := fs.String("in", "", "span JSONL file (required)")
	node := fs.Int("node", -1, "only spans whose src or dst is this node")
	typ := fs.String("type", "", "only this span type: handshake, extra, contention, or fault")
	complete := fs.Bool("complete", false, "only complete spans")
	limit := fs.Int("limit", 0, "print at most this many spans (0 = all)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("spans: -in is required")
	}

	shown, matched := 0, 0
	byType := map[string]int{}
	completeN := 0
	meta, err := forEachSpan(*in, func(s *span.Span) {
		if *typ != "" && s.Type != *typ {
			return
		}
		if *node >= 0 && int(s.Src) != *node && int(s.Dst) != *node {
			return
		}
		if *complete && !s.Complete {
			return
		}
		matched++
		byType[s.Type]++
		if s.Complete {
			completeN++
		}
		if *limit > 0 && shown >= *limit {
			return
		}
		shown++
		line := fmt.Sprintf("%10.4f %10.4f  %-10s xid=%-12x %3d->%-3d %-16s legs=%d",
			s.Start, s.End, s.Type, s.XID, s.Src, s.Dst, s.Outcome, len(s.Legs))
		if s.Parent != 0 {
			line += fmt.Sprintf(" parent=%x", s.Parent)
		}
		if s.Bits > 0 {
			line += fmt.Sprintf(" bits=%d latency=%.4fs", s.Bits, s.LatencyS)
		}
		fmt.Println(line)
	})
	if err != nil {
		return err
	}
	if meta != nil {
		fmt.Printf("# run: protocol=%s seed=%d nodes=%d\n", meta.Protocol, meta.Seed, meta.Nodes)
	}
	fmt.Printf("# %d span(s) matched (%d complete)", matched, completeN)
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %s=%d", t, byType[t])
	}
	fmt.Println()
	if *limit > 0 && matched > shown {
		fmt.Printf("# (%d more suppressed by -limit)\n", matched-shown)
	}
	return nil
}

func cmdLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	in := fs.String("in", "", "span JSONL file (required)")
	typ := fs.String("type", "", "restrict to one span type (default: any delivering span)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("latency: -in is required")
	}

	var lats []float64
	_, err := forEachSpan(*in, func(s *span.Span) {
		if *typ != "" && s.Type != *typ {
			return
		}
		if !s.Complete || s.LatencyS <= 0 {
			return
		}
		lats = append(lats, s.LatencyS)
	})
	if err != nil {
		return err
	}
	if len(lats) == 0 {
		fmt.Println("no delivering spans matched")
		return nil
	}
	sort.Float64s(lats)
	var sum float64
	for _, v := range lats {
		sum += v
	}
	fmt.Printf("n=%d  mean=%.4fs  p50=%.4fs  p95=%.4fs  p99=%.4fs  max=%.4fs\n",
		len(lats), sum/float64(len(lats)),
		percentile(lats, 0.50), percentile(lats, 0.95), percentile(lats, 0.99),
		lats[len(lats)-1])
	histogram(os.Stdout, lats, 10)
	return nil
}

// percentile is nearest-rank over a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// histogram prints an equal-width ASCII histogram of sorted values.
func histogram(w io.Writer, sorted []float64, buckets int) {
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if hi <= lo {
		fmt.Fprintf(w, "  [%8.4f, %8.4f) %s %d\n", lo, hi, strings.Repeat("#", 40), len(sorted))
		return
	}
	width := (hi - lo) / float64(buckets)
	counts := make([]int, buckets)
	for _, v := range sorted {
		b := int((v - lo) / width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", c*40/max)
		}
		fmt.Fprintf(w, "  [%8.4f, %8.4f) %-40s %d\n",
			lo+float64(i)*width, lo+float64(i+1)*width, bar, c)
	}
}

func cmdSlots(args []string) error {
	fs := flag.NewFlagSet("slots", flag.ExitOnError)
	in := fs.String("in", "", "slot-profile JSONL file (required)")
	ratio := fs.Bool("ratio", false, "print only the run's exploitation ratio (for scripts)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("slots: -in is required")
	}

	var nodes []slotprof.NodeRecord
	var sum *slotprof.Summary
	slotLines := 0
	err := scanLines(*in, func(_ int, line []byte) error {
		var rec struct {
			Rec string `json:"rec"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch rec.Rec {
		case "slot":
			slotLines++
		case "node":
			var n slotprof.NodeRecord
			if err := json.Unmarshal(line, &n); err != nil {
				return err
			}
			nodes = append(nodes, n)
		case "summary":
			var s slotprof.Summary
			if err := json.Unmarshal(line, &s); err != nil {
				return err
			}
			sum = &s
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sum == nil {
		return fmt.Errorf("%s: no summary record (file truncated?)", *in)
	}
	if *ratio {
		fmt.Printf("%g\n", sum.Exploit)
		return nil
	}

	fmt.Printf("%s: %d slot(s) × %d node(s), slot=%gs (%d active slot lines)\n",
		sum.Protocol, sum.Slots, sum.Nodes, sum.SlotLenS, slotLines)
	fmt.Printf("%6s %10s %10s %10s %10s %10s %9s\n",
		"node", "tx(s)", "rx(s)", "wait(s)", "reclaim(s)", "guard(s)", "exploit")
	for _, n := range nodes {
		fmt.Printf("%6d %10.3f %10.3f %10.3f %10.3f %10.3f %9.4f\n",
			n.Node, n.Tx, n.Rx, n.Wait, n.Reclaimed, n.Guard, n.Exploit)
	}
	fmt.Printf("%6s %10.3f %10.3f %10.3f %10.3f %10.3f %9.4f\n",
		"total", sum.Tx, sum.Rx, sum.Wait, sum.Reclaimed, sum.Guard, sum.Exploit)
	return nil
}

func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	in := fs.String("in", "", "trace-v2 JSONL file (required)")
	event := fs.String("event", "", "only lines with this event tag")
	node := fs.Int("node", -1, "only lines whose node, src, or dst is this node")
	limit := fs.Int("limit", 0, "print at most this many lines (0 = all)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("events: -in is required")
	}

	matched, shown := 0, 0
	byTag := map[string]int{}
	err := scanLines(*in, func(_ int, line []byte) error {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		tag, _ := m["event"].(string)
		if *event != "" && tag != *event {
			return nil
		}
		if *node >= 0 && !lineMentions(m, float64(*node)) {
			return nil
		}
		matched++
		byTag[tag]++
		if *limit > 0 && shown >= *limit {
			return nil
		}
		shown++
		fmt.Println(string(line))
		return nil
	})
	if err != nil {
		return err
	}
	tags := make([]string, 0, len(byTag))
	for t := range byTag {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	fmt.Printf("# %d line(s) matched", matched)
	for _, t := range tags {
		fmt.Printf("  %s=%d", t, byTag[t])
	}
	fmt.Println()
	return nil
}

// cmdDrops reduces the trace-v2 stream's mac.drop events to a
// per-reason table and the noisiest dropping nodes — the quick answer
// to "where is an overloaded run losing traffic".
func cmdDrops(args []string) error {
	fs := flag.NewFlagSet("drops", flag.ExitOnError)
	in := fs.String("in", "", "trace-v2 JSONL file (required)")
	top := fs.Int("top", 10, "show the N nodes with the most drops (0 = all)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("drops: -in is required")
	}
	_, err := tallyByReason(*in, "mac.drop", "drop", *top, nil)
	return err
}

// cmdViolations reduces the trace-v2 stream's oracle.violation events
// to per-reason and per-node tables — the triage view over a -verify
// run that failed conformance — and prints the first few violation
// details verbatim.
func cmdViolations(args []string) error {
	fs := flag.NewFlagSet("violations", flag.ExitOnError)
	in := fs.String("in", "", "trace-v2 JSONL file (required)")
	top := fs.Int("top", 10, "show the N nodes with the most violations (0 = all)")
	show := fs.Int("show", 5, "print the first N violation details (0 = none)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("violations: -in is required")
	}
	var details []string
	counted, err := tallyByReason(*in, "oracle.violation", "violation", *top, func(m reasonEvent) {
		if len(details) < *show {
			d := m.Detail
			if d == "" {
				d = m.Reason
			}
			details = append(details, fmt.Sprintf("t=%.3fs node %d [%s] %s", m.At, m.Node, m.Reason, d))
		}
	})
	if !counted || err != nil {
		return err
	}
	for i, d := range details {
		if i == 0 {
			fmt.Println("first violations:")
		}
		fmt.Println("  " + d)
	}
	return nil
}

// reasonEvent is the part of a trace-v2 line tallyByReason reads.
type reasonEvent struct {
	At     float64 `json:"at"`
	Event  string  `json:"event"`
	Node   int     `json:"node"`
	Reason string  `json:"reason"`
	Detail string  `json:"detail"`
}

// tallyByReason counts the trace's events tagged event per reason and
// per node, and prints a per-reason table and the top nodes'
// breakdowns; noun names one event ("drop"). each, when non-nil, sees
// every counted event in trace order. It reports whether any event was
// counted.
func tallyByReason(in, event, noun string, top int, each func(reasonEvent)) (bool, error) {
	type nodeAgg struct {
		node     int
		total    int
		byReason map[string]int
	}
	byReason := map[string]int{}
	byNode := map[int]*nodeAgg{}
	total := 0
	err := scanLines(in, func(_ int, line []byte) error {
		var m reasonEvent
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		if m.Event != event {
			return nil
		}
		total++
		byReason[m.Reason]++
		a := byNode[m.Node]
		if a == nil {
			a = &nodeAgg{node: m.Node, byReason: map[string]int{}}
			byNode[m.Node] = a
		}
		a.total++
		a.byReason[m.Reason]++
		if each != nil {
			each(m)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if total == 0 {
		fmt.Printf("no %s events\n", event)
		return false, nil
	}

	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if byReason[reasons[i]] != byReason[reasons[j]] {
			return byReason[reasons[i]] > byReason[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	fmt.Printf("%d %s(s) across %d node(s)\n", total, noun, len(byNode))
	for _, r := range reasons {
		fmt.Printf("  %-18s %6d\n", r, byReason[r])
	}

	nodes := make([]*nodeAgg, 0, len(byNode))
	for _, a := range byNode {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].total != nodes[j].total {
			return nodes[i].total > nodes[j].total
		}
		return nodes[i].node < nodes[j].node
	})
	shown := len(nodes)
	if top > 0 && shown > top {
		shown = top
	}
	fmt.Printf("%6s %7s  breakdown\n", "node", noun+"s")
	for _, a := range nodes[:shown] {
		parts := make([]string, 0, len(a.byReason))
		for _, r := range reasons {
			if n := a.byReason[r]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", r, n))
			}
		}
		fmt.Printf("%6d %7d  %s\n", a.node, a.total, strings.Join(parts, " "))
	}
	if shown < len(nodes) {
		fmt.Printf("# (%d more node(s) suppressed by -top)\n", len(nodes)-shown)
	}
	return true, nil
}

// lineMentions reports whether a trace line involves the node, checking
// the common identity keys at the top level and inside frame objects.
func lineMentions(m map[string]any, node float64) bool {
	for _, k := range []string{"node", "src", "dst", "peer", "origin"} {
		if v, ok := m[k].(float64); ok && v == node {
			return true
		}
	}
	if fr, ok := m["frame"].(map[string]any); ok {
		for _, k := range []string{"src", "dst"} {
			if v, ok := fr[k].(float64); ok && v == node {
				return true
			}
		}
	}
	return false
}

// diffAgg is one span file's aggregate for diffing.
type diffAgg struct {
	meta     *span.Meta
	byType   map[string]int
	complete int
	total    int
	latSum   float64
	latN     int
}

func aggregate(path string) (*diffAgg, error) {
	a := &diffAgg{byType: map[string]int{}}
	meta, err := forEachSpan(path, func(s *span.Span) {
		a.total++
		a.byType[s.Type]++
		if s.Complete {
			a.complete++
		}
		if s.Complete && s.LatencyS > 0 {
			a.latSum += s.LatencyS
			a.latN++
		}
	})
	a.meta = meta
	return a, err
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two span files, got %d", fs.NArg())
	}
	pa, pb := fs.Arg(0), fs.Arg(1)
	a, err := aggregate(pa)
	if err != nil {
		return err
	}
	b, err := aggregate(pb)
	if err != nil {
		return err
	}
	name := func(m *span.Meta, path string) string {
		if m == nil {
			return path
		}
		return fmt.Sprintf("%s (%s seed=%d)", path, m.Protocol, m.Seed)
	}
	fmt.Printf("a: %s\nb: %s\n", name(a.meta, pa), name(b.meta, pb))
	fmt.Printf("%-14s %12s %12s %12s\n", "metric", "a", "b", "delta")
	row := func(label string, va, vb int) {
		fmt.Printf("%-14s %12d %12d %+12d\n", label, va, vb, vb-va)
	}
	row("spans", a.total, b.total)
	row("complete", a.complete, b.complete)
	keys := map[string]bool{}
	for t := range a.byType {
		keys[t] = true
	}
	for t := range b.byType {
		keys[t] = true
	}
	types := make([]string, 0, len(keys))
	for t := range keys {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		row(t, a.byType[t], b.byType[t])
	}
	mean := func(d *diffAgg) float64 {
		if d.latN == 0 {
			return 0
		}
		return d.latSum / float64(d.latN)
	}
	fmt.Printf("%-14s %12.4f %12.4f %+12.4f\n", "mean latency", mean(a), mean(b), mean(b)-mean(a))
	return nil
}
