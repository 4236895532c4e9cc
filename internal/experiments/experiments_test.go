package experiments

import (
	"fmt"
	"os"
	"testing"
)

// Small-scale smoke runs of every experiment driver; shape assertions live
// here, full-scale numbers in the bench harness / EXPERIMENTS.md.

func small() Options {
	return Options{Scale: 0.25}.Defaults()
}

func TestTable1(t *testing.T) {
	rows, err := Table1(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	multi := map[string]bool{"h2": true, "lusearch": true, "pmd": true}
	for _, r := range rows {
		if want := multi[r.Subject]; want != (r.Threaded == "multiple") {
			t.Errorf("%s: threaded=%s", r.Subject, r.Threaded)
		}
		if r.Methods < 5 || r.Instrs < 100 {
			t.Errorf("%s: implausibly small (%d methods, %d instrs)", r.Subject, r.Methods, r.Instrs)
		}
	}
	PrintTable1(os.Stderr, rows)
}

func TestTable2Shape(t *testing.T) {
	o := small()
	o.Subjects = []string{"batik", "h2"}
	rows, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%+v", r)
		if r.JPortal < 1.0 || r.JPortal > 1.6 {
			t.Errorf("%s: JPortal slowdown %.3f outside the paper's band", r.Subject, r.JPortal)
		}
		if !(r.CF > r.PF && r.PF >= r.SC*0.8) {
			t.Errorf("%s: ordering violated: SC=%.2f PF=%.2f CF=%.2f", r.Subject, r.SC, r.PF, r.CF)
		}
		if r.JPortal >= r.SC {
			t.Errorf("%s: JPortal (%.3f) should beat SC instrumentation (%.3f)", r.Subject, r.JPortal, r.SC)
		}
		if r.Xprof < 1.0 || r.JProf < 1.0 {
			t.Errorf("%s: sampler slowdowns below 1: %.3f %.3f", r.Subject, r.Xprof, r.JProf)
		}
	}
}

// accuracyBand is one recorded accuracy point, in percent: the guard
// fails if Overall, RA or DA drops by more than guardPoints, or if PMD or
// PR moves by more than guardPoints either way.
type accuracyBand struct {
	Overall, RA, DA, PMD, PR float64
}

const guardPoints = 1.0

// checkBand compares one row against its recorded band.
func checkBand(t *testing.T, label string, r AccuracyRow, want accuracyBand) {
	t.Helper()
	got := accuracyBand{r.Overall * 100, r.RA * 100, r.DA * 100, r.PMD * 100, r.PR * 100}
	t.Logf("%s: overall=%.4f RA=%.4f DA=%.4f PMD=%.4f PR=%.4f", label, got.Overall, got.RA, got.DA, got.PMD, got.PR)
	for _, m := range []struct {
		name      string
		got, want float64
		twoSided  bool
	}{
		{"overall", got.Overall, want.Overall, false},
		{"RA", got.RA, want.RA, false},
		{"DA", got.DA, want.DA, false},
		{"PMD", got.PMD, want.PMD, true},
		{"PR", got.PR, want.PR, true},
	} {
		d := m.got - m.want
		if d < -guardPoints || m.twoSided && d > guardPoints {
			t.Errorf("%s: %s %.2f%% vs recorded %.2f%% (guard ±%.0f point)", label, m.name, m.got, m.want, guardPoints)
		}
	}
}

// figure7Bands are the per-subject accuracies at small() scale and the
// default buffer, recorded when the guard was introduced.
var figure7Bands = map[string]accuracyBand{
	"avrora":   {82.4834, 0, 82.4834, 0, 0},
	"batik":    {80.7204, 59.0715, 88.5994, 26.6830, 15.7620},
	"fop":      {95.0714, 59.9097, 97.0464, 5.3182, 3.1861},
	"h2":       {89.9969, 0, 89.9969, 0, 0},
	"jython":   {76.7965, 55.3703, 92.0062, 41.5158, 22.9874},
	"luindex":  {83.5122, 0, 83.5122, 0, 0},
	"lusearch": {98.0685, 0, 98.0685, 0, 0},
	"pmd":      {80.8820, 0, 80.8820, 0, 0},
	"sunflow":  {93.1793, 0, 93.1793, 0, 0},
}

// TestFigure7Shape guards every subject's reconstruction accuracy
// (Figure 7) against its recorded band.
func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(figure7Bands) {
		t.Fatalf("got %d rows, want %d", len(rows), len(figure7Bands))
	}
	for _, r := range rows {
		want, ok := figure7Bands[r.Subject]
		if !ok {
			t.Fatalf("no recorded band for %s", r.Subject)
		}
		checkBand(t, r.Subject, r, want)
		if r.Overall < 0.4 || r.Overall > 1.0 {
			t.Errorf("%s: overall accuracy %.3f out of plausible range", r.Subject, r.Overall)
		}
		if r.DA < 0.5 {
			t.Errorf("%s: decode accuracy %.3f too low", r.Subject, r.DA)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	o := small()
	o.Subjects = []string{"jython"}
	rows, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("%+v", r)
	if r.JPortal < r.Xprof || r.JPortal < r.JProf {
		t.Errorf("JPortal (%d) should beat samplers (xprof=%d, jprof=%d)", r.JPortal, r.Xprof, r.JProf)
	}
	if r.JPortal < 3 {
		t.Errorf("JPortal found only %d of top 10", r.JPortal)
	}
}

func TestTable5Shape(t *testing.T) {
	o := small()
	o.Subjects = []string{"avrora"}
	rows, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("%+v", r)
	if r.TS == 0 || r.BaseTS == 0 {
		t.Fatal("zero trace sizes")
	}
}

func TestBufBytesScaling(t *testing.T) {
	// The paper-label mapping must be monotone and hit the documented
	// points: 128MB -> 32KB at shift 12.
	if got := bufBytes(128); got != 128<<(20-BufScaleShift) {
		t.Errorf("bufBytes(128) = %d", got)
	}
	if bufBytes(64) >= bufBytes(128) || bufBytes(128) >= bufBytes(256) {
		t.Error("buffer mapping not monotone")
	}
}

func TestPathAccuracySmoke(t *testing.T) {
	o := small()
	o.Subjects = []string{"luindex"}
	rows, err := PathAccuracy(o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("%+v", r)
	if r.TruePaths == 0 || r.ReconPaths == 0 {
		t.Fatal("empty path profiles")
	}
	if r.Overlap < 0.5 {
		t.Errorf("path overlap %.2f too low for a lossless-scale run", r.Overlap)
	}
}

// table3Bands are Table 3's rows at small() scale — subject × 256/128/64M
// buffer labels, in Table3's order — recorded when the guard was
// introduced.
var table3Bands = []accuracyBand{
	{89.0659, 0, 89.0659, 0, 0},                   // batik 256M
	{80.7204, 59.0715, 88.5994, 26.6830, 15.7620}, // batik 128M
	{81.7421, 67.7756, 89.6327, 36.1008, 24.4675}, // batik 64M
	{89.9969, 0, 89.9969, 0, 0},                   // h2 256M
	{89.9969, 0, 89.9969, 0, 0},                   // h2 128M
	{77.6442, 0, 77.6442, 0, 0},                   // h2 64M
	{93.1793, 0, 93.1793, 0, 0},                   // sunflow 256M
	{93.1793, 0, 93.1793, 0, 0},                   // sunflow 128M
	{43.6992, 32.6791, 44.6305, 7.7922, 2.5464},   // sunflow 64M
}

// TestTable3Rows guards Table 3's loss/recovery breakdown against its
// recorded bands and checks the table's shape: buffer labels in order,
// PMD non-decreasing as the buffer shrinks, and the PD/PR identities.
func TestTable3Rows(t *testing.T) {
	o := small()
	o.Subjects = Table3Subjects
	rows, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(table3Bands) {
		t.Fatalf("rows: %d, want %d", len(rows), len(table3Bands))
	}
	for i, r := range rows {
		checkBand(t, fmt.Sprintf("%s %dM", r.Subject, r.BufMB), r, table3Bands[i])
		if d := r.PD - r.PDC*r.DA; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: PD != PDC*DA at %dM", r.Subject, r.BufMB)
		}
		if d := r.PR - r.PMD*r.RA; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: PR != PMD*RA at %dM", r.Subject, r.BufMB)
		}
	}
	for i := 0; i < len(rows); i += 3 {
		r := rows[i : i+3]
		if r[0].BufMB != 256 || r[1].BufMB != 128 || r[2].BufMB != 64 {
			t.Errorf("%s: buffer order: %d %d %d", r[0].Subject, r[0].BufMB, r[1].BufMB, r[2].BufMB)
		}
		if r[0].PMD > r[1].PMD+0.05 || r[1].PMD > r[2].PMD+0.05 {
			t.Errorf("%s: PMD not monotone-ish: %.2f %.2f %.2f", r[0].Subject, r[0].PMD, r[1].PMD, r[2].PMD)
		}
	}
}
