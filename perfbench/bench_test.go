package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// tinyConfig shrinks a workload to a sub-second run on a ~200-person
// graph.
func tinyConfig(t *testing.T, workload string) config {
	c := defaultConfig(workload)
	c.seed, c.sf, c.shrink, c.setups, c.setupSeconds, c.pairSets, c.seconds = 1, 1, 50, 1, 0, 2, 0.3
	if c.rate > 0 {
		c.rate = 200
	}
	c.outDir = t.TempDir()
	return c
}

// declared reads the metric names BENCHMARK.json declares in a section.
func declared(t *testing.T, section string) []string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func reported(rep *report) []string {
	var names []string
	for _, m := range rep.metrics {
		if !ungated[m.name] {
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsTiny runs every workload, untraced and traced, and
// requires every answer to pass the oracle and every metric
// BENCHMARK.json declares to be reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name)
			cfg.trace = traced
			rep, err := run(context.Background(), &cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 || rep.wrong != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, wrong %d; notes %v", name, traced, rep.attempted, rep.failed, rep.wrong, rep.notes)
			}
			section := "end_to_end"
			if traced {
				section = "per_layer"
			}
			if got, want := reported(rep), declared(t, section); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: reports %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
			if traced {
				for _, f := range []string{"-spans.json", "-layers.json"} {
					if _, err := os.Stat(filepath.Join(cfg.outDir, name+"-seed1"+f)); err != nil {
						t.Errorf("%s: trace output: %v", name, err)
					}
				}
			}
		}
	}
}

// TestWrongAnswerIsCounted corrupts the oracle's expected costs and
// requires the run to count the disagreements as failures and to print
// correct=false, rather than pass silently.
func TestWrongAnswerIsCounted(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := tinyConfig(t, name)
		cfg.tamper = func(o *oracle) {
			for k, c := range o.point {
				o.point[k] = c + 1
			}
		}
		rep, err := run(context.Background(), &cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.wrong == 0 || rep.failed < rep.wrong {
			t.Errorf("%s: corrupted oracle gave wrong %d, failed %d", name, rep.wrong, rep.failed)
		}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: result line %s", name, lines[len(lines)-1])
		}
	}
}
