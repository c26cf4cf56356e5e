package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredWorkloads pins BENCHMARK.json's workload list to the
// workload table.
func TestDeclaredWorkloads(t *testing.T) {
	var names []string
	for _, w := range loadDeclared(t).Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, table has %s", got, want)
	}
}

// TestTinyWorkloads runs the seconds-scale variant of every workload in
// both modes and checks that the result line carries exactly the
// metrics BENCHMARK.json declares, with their units, and no failures.
func TestTinyWorkloads(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", d.EndToEnd}, {"1", d.PerLayer}} {
			t.Run(w.name+"/trace="+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--tiny", "--seconds", "0.2", "--trace", mode.trace, "--seed", "3"}, &stdout, &stderr)
				if w.workers > runtime.GOMAXPROCS(0) {
					if code != 3 {
						t.Fatalf("exit %d with GOMAXPROCS=%d, want 3 (skipped)", code, runtime.GOMAXPROCS(0))
					}
					t.Skipf("needs %d cores", w.workers)
				}
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stdout.String())
				}
				if len(rep.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if mode.trace == "0" && rep.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac %v, want 1 (failed_frac 0)", rep.Metrics["ok_frac"].Value)
				}
			})
		}
	}
}

func TestPercentiles(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	if got := median(d); got != 50 {
		t.Errorf("median %v, want 50 (mean of 50 and 51, truncated)", got)
	}
	if v, pct := tail(d); v != 90 || pct != 90 {
		t.Errorf("tail = %v p%v, want 90 p90", v, pct)
	}
	if v, pct := tail(d[:11]); v != 1 || pct != 100.0/11 {
		t.Errorf("tail of 11 = %v p%v, want the smallest sample", v, pct)
	}
}

func TestIntervals(t *testing.T) {
	u := union([]interval{{5, 8}, {0, 2}, {1, 3}, {8, 9}})
	if len(u) != 2 || u[0] != (interval{0, 3}) || u[1] != (interval{5, 9}) {
		t.Fatalf("union = %v", u)
	}
	if got := length(u); got != 7 {
		t.Errorf("length %d, want 7", got)
	}
	if got := overlap(u, []interval{{2, 6}, {8, 20}}); got != 3 {
		t.Errorf("overlap %d, want 3", got)
	}
}

// TestGraphDeterministic guards the property the fingerprints rely on.
func TestGraphDeterministic(t *testing.T) {
	a, err := genPA(3000, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genPA(3000, 8, 11)
	if fa, fb := fingerprintOf(a), fingerprintOf(b); fa != fb {
		t.Fatalf("same seed, different graphs: %v vs %v", fa, fb)
	}
}
