package main

import (
	"os"
	"path/filepath"
	"testing"
)

// runStdout runs the tool with args and returns what it printed.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	code := run(args)
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("tracetool %v exited %d", args, code)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testdata/run.jsonl holds mac.drop and oracle.violation lines from a
// -verify EW-MAC run under examples/faults/chaos.json, a few other
// events, and one hand-written half-duplex violation with no detail.
// The pinned tables are the subcommands' output on it.
func TestDropsAndViolationsTables(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{
			[]string{"drops", "-in", "testdata/run.jsonl", "-top", "3"},
			`20 drop(s) across 9 node(s)
  deadline-expired       14
  dead-peer               6
  node   drops  breakdown
    18       5  deadline-expired=5
    16       4  deadline-expired=1 dead-peer=3
     6       3  dead-peer=3
# (6 more node(s) suppressed by -top)
`,
		},
		{
			[]string{"violations", "-in", "testdata/run.jsonl", "-top", "2", "-show", "6"},
			`6 violation(s) across 4 node(s)
  extra-guard             5
  half-duplex             1
  node violations  breakdown
     8       2  extra-guard=1 half-duplex=1
    14       2  extra-guard=2
# (2 more node(s) suppressed by -top)
first violations:
  t=35.540s node 14 [extra-guard] negotiated n17 CTS seq=0 @35.186666655s corrupted by extra frame n19 EXC seq=0 @34.863575874s (guard breach)
  t=45.593s node 14 [extra-guard] negotiated n17 Ack seq=1 @45.239999985s corrupted by extra frame n24 EXData seq=3 @45.272198439s (guard breach)
  t=63.722s node 11 [extra-guard] negotiated n17 Ack seq=1 @1m3.335999979s corrupted by extra frame n10 EXData seq=2 @1m3.360658707s (guard breach)
  t=115.873s node 12 [extra-guard] negotiated n2 CTS seq=0 @1m55.613333295s corrupted by extra frame n11 EXC seq=0 @1m55.33232757s (guard breach)
  t=136.128s node 8 [extra-guard] negotiated n13 CTS seq=0 @2m15.719999955s corrupted by extra frame n17 EXC seq=0 @2m15.563190952s (guard breach)
  t=140.500s node 8 [half-duplex] half-duplex
`,
		},
	} {
		if got := runStdout(t, tc.args...); got != tc.want {
			t.Errorf("tracetool %v printed\n%s\nwant\n%s", tc.args, got, tc.want)
		}
	}
}

// A trace without the tag says so instead of printing empty tables.
func TestTallyWithoutEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	line := `{"at":1,"event":"mac.deliver","node":3,"origin":5,"seq":1,"bits":2048,"latency":0.5}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for cmd, want := range map[string]string{
		"drops":      "no mac.drop events\n",
		"violations": "no oracle.violation events\n",
	} {
		if got := runStdout(t, cmd, "-in", path); got != want {
			t.Errorf("%s printed %q, want %q", cmd, got, want)
		}
	}
}
