package experiments

import (
	"strings"
	"testing"
)

func TestTable2Static(t *testing.T) {
	out := Table2()
	for _, want := range []string{"Issue Width", "51.2%", "32.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyticalStatic(t *testing.T) {
	out := Analytical()
	for _, want := range []string{"8.70", "6.80", "1.76", "2.13"} {
		if !strings.Contains(out, want) {
			t.Errorf("analytical output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6Small(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled run")
	}
	sampler, out, err := Runner{}.Figure6(500, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampler.Samples) < 3 {
		t.Fatalf("only %d samples", len(sampler.Samples))
	}
	if !strings.Contains(out, "drain%") {
		t.Error("render missing columns")
	}
}

// table1Golden is Table 1 exactly as commit 9bcb70a rendered it
// (`fastbench -only table1 -quiet`), when runFM still ran the functional
// model with the predecode cache off: the table counts µops, so no host-side
// FM setting may move a character of it.
const table1Golden = `Table 1 — microcode coverage and µop expansion
App              Fraction    (paper)    µOps/inst      (paper)
Linux-2.4         100.00%     95.94%         1.18         1.15
164.gzip          100.00%     99.98%         1.16         1.34
175.vpr            85.88%     84.62%         1.08         1.19
176.gcc           100.00%     99.90%         1.27         1.30
181.mcf           100.00%     99.93%         1.37         1.17
186.crafty        100.00%     98.96%         1.03         1.15
197.parser        100.00%     99.74%         1.12         1.27
252.eon            60.82%     52.32%         1.00         1.24
253.perlbmk       100.00%     98.64%         1.17         1.29
254.gap           100.00%     99.80%         1.23         1.31
255.vortex        100.00%     99.91%         1.18         1.21
256.bzip2         100.00%     99.98%         1.20         1.29
300.twolf         100.00%     95.20%         1.09         1.25
Linux-2.6         100.00%     98.02%         1.28         1.45
Sweep3D            45.73%     44.05%         1.09         1.19
MySQL             100.00%     99.15%         1.47         1.51
aggregate          93.28%                    1.18
`

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen functional runs")
	}
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"252.eon", "Sweep3D", "MySQL", "aggregate"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if out != table1Golden {
		t.Errorf("Table 1 moved:\n%s\nwant:\n%s", out, table1Golden)
	}
}
