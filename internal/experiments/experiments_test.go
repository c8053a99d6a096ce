package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"soteria/internal/memctrl"
)

func smallPerf() PerfParams {
	p := DefaultPerfParams()
	p.Ops = 8000
	p.Warmup = 2000
	p.Footprint = 16 << 20
	p.Workloads = []string{"uBENCH128", "hashmap"}
	return p
}

// A workload name from user input that the suite does not have is an
// error naming the valid workloads, not a panic.
func TestRunPerfRejectsUnknownWorkload(t *testing.T) {
	p := smallPerf()
	p.Workloads = []string{"hashmap", "nope"}
	_, err := RunPerf(p)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{`"nope"`, "hashmap", "uBENCH128"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// The stats table carries one column per (workload, mode) run and, with
// Check on, every read of the run was verified.
func TestStatsTable(t *testing.T) {
	p := smallPerf()
	p.Workloads = []string{"hashmap"}
	p.Modes = []memctrl.Mode{memctrl.ModeNonSecure, memctrl.ModeSAC}
	p.Check = true
	res, err := RunPerf(p)
	if err != nil {
		t.Fatal(err)
	}
	tab := StatsTable(res)
	if h := tab.Headers(); len(h) != 3 || h[1] != "hashmap/non-secure" || h[2] != "hashmap/soteria-SAC" {
		t.Fatalf("headers %v", h)
	}
	rows := map[string][]string{}
	for i := 0; i < tab.NumRows(); i++ {
		r := tab.Row(i)
		rows[r[0]] = r[1:]
	}
	sac := res.Get("hashmap", memctrl.ModeSAC)
	if got := rows["NVM writes: clone"][1]; got != fmt.Sprint(sac.Ctrl.NVMWrites[memctrl.WCClone]) || got == "0" {
		t.Errorf("SAC clone writes cell %q, result %d", got, sac.Ctrl.NVMWrites[memctrl.WCClone])
	}
	l1 := rows["L1 dirty evictions"]
	if l1 == nil || l1[0] != "" || l1[1] == "" {
		t.Errorf("L1 eviction row %v: want blank for non-secure, a count for SAC", l1)
	}
}

func TestRunPerfAndFigures(t *testing.T) {
	res, err := RunPerf(smallPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 2 {
		t.Fatalf("names %v", res.Names)
	}
	for _, name := range res.Names {
		for _, m := range []memctrl.Mode{memctrl.ModeBaseline, memctrl.ModeSRC, memctrl.ModeSAC} {
			r := res.Get(name, m)
			if r.MemOps == 0 || r.ExecTime == 0 {
				t.Fatalf("%s/%v empty result", name, m)
			}
		}
	}
	fig10a := Fig10a(res)
	fig10b := Fig10b(res)
	fig10c := Fig10c(res)
	fig4 := Fig4(res)
	// Each figure has one row per workload (plus averages for 10a/b/c).
	if fig10a.NumRows() != 3 || fig10b.NumRows() != 3 || fig10c.NumRows() != 3 || fig4.NumRows() != 2 {
		t.Fatalf("row counts: %d %d %d %d", fig10a.NumRows(), fig10b.NumRows(), fig10c.NumRows(), fig4.NumRows())
	}
	var buf bytes.Buffer
	if err := fig10a.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "uBENCH128") {
		t.Fatal("figure missing workload row")
	}
}

func TestFig3Table(t *testing.T) {
	tab, err := Fig3(1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5 {
		t.Fatalf("rows %d", tab.NumRows())
	}
}

func TestTable2Table3Table4(t *testing.T) {
	if Table2().NumRows() != 2 {
		t.Fatal("table 2")
	}
	if Table3().NumRows() < 8 {
		t.Fatal("table 3")
	}
	if Table4().NumRows() < 6 {
		t.Fatal("table 4")
	}
}

func TestMTBFTable(t *testing.T) {
	tab, err := MTBFTable([]float64{1, 80})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatal("rows")
	}
}

func TestFig11SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	p := DefaultRelParams()
	p.Trials = 4000
	p.FITs = []float64{80}
	r, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 1 {
		t.Fatal("rows")
	}
	if len(r.UDRs["baseline"]) != 1 {
		t.Fatal("UDR series missing")
	}
	// Ordering must hold even at tiny trial counts (SRC/SAC may be 0).
	if r.UDRs["SRC"][0] > r.UDRs["baseline"][0] && r.UDRs["baseline"][0] > 0 {
		t.Fatal("SRC worse than baseline")
	}
}

func TestMetaMissTable(t *testing.T) {
	res, err := RunPerf(smallPerf())
	if err != nil {
		t.Fatal(err)
	}
	tab := MetaMissTable(res)
	if tab.NumRows() != 2 {
		t.Fatalf("rows %d", tab.NumRows())
	}
}

func TestAblationEagerLazy(t *testing.T) {
	p := smallPerf()
	p.Workloads = []string{"uBENCH64"}
	tab, err := AblationEagerLazy(p)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("rows %d", tab.NumRows())
	}
}

func TestAblationCloneDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("depth sweep is slow")
	}
	p := smallPerf()
	rel := DefaultRelParams()
	rel.Trials = 2000
	tab, err := AblationCloneDepth(p, rel, 80)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5 {
		t.Fatalf("rows %d", tab.NumRows())
	}
}

func TestFig12SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	p := DefaultRelParams()
	p.Trials = 4000
	tab, err := Fig12(p, 80, 8<<40)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 {
		t.Fatalf("rows %d", tab.NumRows())
	}
}
