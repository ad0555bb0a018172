package tables

import (
	"fmt"
	"math"
	"strings"

	"plim/internal/stats"
)

// Grid is a rendered table: a title, one header row and string cells. It
// renders as aligned text, Markdown or CSV.
type Grid struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Text renders the grid with aligned columns.
func (g *Grid) Text() string {
	widths := make([]int, len(g.Columns))
	for i, c := range g.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range g.Rows {
		for i, cell := range row {
			if l := len([]rune(cell)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&b, "%s\n", g.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len([]rune(cell))
			if i == 0 {
				b.WriteString(cell + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + cell)
			}
		}
		b.WriteByte('\n')
	}
	line(g.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range g.Rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the grid as a GitHub-flavoured Markdown table.
func (g *Grid) Markdown() string {
	var b strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", g.Title)
	}
	b.WriteString("| " + strings.Join(g.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(g.Columns)) + "\n")
	for _, row := range g.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the grid as comma-separated values (cells contain no commas).
func (g *Grid) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(g.Columns, ",") + "\n")
	for _, row := range g.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// TableICell is one configuration's write statistics on one benchmark.
type TableICell struct {
	Min, Max float64 // float so the AVG row can carry means
	StdDev   float64
	// Impr is the standard-deviation improvement vs the naive baseline in
	// percent; NaN in the baseline column.
	Impr float64
}

// TableIData is the paper's Table I.
type TableIData struct {
	ConfigNames []string
	Benchmarks  []string
	PIPO        [][2]int
	Cells       [][]TableICell // [benchmark][config]
	Avg         []TableICell   // column means (Impr = mean of row Imprs)
}

// TableI projects a suite result onto the paper's Table I layout. The
// result must include a configuration named "naive" as the baseline.
func TableI(sr *SuiteResult) (*TableIData, error) {
	base := sr.ConfigIndex("naive")
	if base < 0 {
		return nil, fmt.Errorf("tables: Table I needs a %q configuration", "naive")
	}
	d := &TableIData{}
	for _, c := range sr.Configs {
		d.ConfigNames = append(d.ConfigNames, c.Name)
	}
	d.Avg = make([]TableICell, len(sr.Configs))
	for b, info := range sr.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, info.Name)
		d.PIPO = append(d.PIPO, [2]int{info.PI, info.PO})
		baseSD := sr.Reports[b][base].Writes.StdDev
		row := make([]TableICell, len(sr.Configs))
		for c, rep := range sr.Reports[b] {
			cell := TableICell{
				Min:    float64(rep.Writes.Min),
				Max:    float64(rep.Writes.Max),
				StdDev: rep.Writes.StdDev,
				Impr:   stats.Improvement(baseSD, rep.Writes.StdDev),
			}
			if c == base {
				cell.Impr = math.NaN()
			}
			row[c] = cell
			d.Avg[c].Min += cell.Min
			d.Avg[c].Max += cell.Max
			d.Avg[c].StdDev += cell.StdDev
			if c != base {
				d.Avg[c].Impr += cell.Impr
			}
		}
		d.Cells = append(d.Cells, row)
	}
	n := float64(len(sr.Benchmarks))
	for c := range d.Avg {
		d.Avg[c].Min /= n
		d.Avg[c].Max /= n
		d.Avg[c].StdDev /= n
		if c == base {
			d.Avg[c].Impr = math.NaN()
		} else {
			d.Avg[c].Impr /= n
		}
	}
	return d, nil
}

// Grid renders Table I in the paper's column layout.
func (d *TableIData) Grid() *Grid {
	g := &Grid{Title: "Table I: write distribution (min/max, STDEV, improvement vs naive)"}
	g.Columns = []string{"benchmark", "PI/PO"}
	for i, name := range d.ConfigNames {
		g.Columns = append(g.Columns, name+" min/max", name+" STDEV")
		if !math.IsNaN(d.Avg[i].Impr) {
			g.Columns = append(g.Columns, name+" impr.")
		}
	}
	for b := range d.Benchmarks {
		out := []string{d.Benchmarks[b], fmt.Sprintf("%d/%d", d.PIPO[b][0], d.PIPO[b][1])}
		for c, cell := range d.Cells[b] {
			out = append(out, fmt.Sprintf("%.0f/%.0f", cell.Min, cell.Max), fmt.Sprintf("%.2f", cell.StdDev))
			if !math.IsNaN(d.Avg[c].Impr) {
				out = append(out, fmt.Sprintf("%.2f%%", cell.Impr))
			}
		}
		g.Rows = append(g.Rows, out)
	}
	avg := []string{"AVG", ""}
	for _, cell := range d.Avg {
		avg = append(avg, fmt.Sprintf("%.2f/%.2f", cell.Min, cell.Max), fmt.Sprintf("%.2f", cell.StdDev))
		if !math.IsNaN(cell.Impr) {
			avg = append(avg, fmt.Sprintf("%.2f%%", cell.Impr))
		}
	}
	g.Rows = append(g.Rows, avg)
	return g
}

// TableIIData is the paper's Table II: #I and #R per configuration.
type TableIIData struct {
	ConfigNames []string
	Benchmarks  []string
	PIPO        [][2]int
	I           [][]int // [benchmark][config]
	R           [][]int
	AvgI        []float64
	AvgR        []float64
}

// TableII projects the instruction/device costs of the given configuration
// names (paper: naive, rewriting, full).
func TableII(sr *SuiteResult, configNames ...string) (*TableIIData, error) {
	if len(configNames) == 0 {
		configNames = []string{"naive", "rewriting", "full"}
	}
	idx := make([]int, len(configNames))
	for i, n := range configNames {
		idx[i] = sr.ConfigIndex(n)
		if idx[i] < 0 {
			return nil, fmt.Errorf("tables: Table II needs configuration %q", n)
		}
	}
	d := &TableIIData{ConfigNames: configNames}
	d.AvgI = make([]float64, len(idx))
	d.AvgR = make([]float64, len(idx))
	for b, info := range sr.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, info.Name)
		d.PIPO = append(d.PIPO, [2]int{info.PI, info.PO})
		ri := make([]int, len(idx))
		rr := make([]int, len(idx))
		for i, c := range idx {
			rep := sr.Reports[b][c]
			ri[i] = rep.NumInstructions()
			rr[i] = rep.NumRRAMs()
			d.AvgI[i] += float64(ri[i])
			d.AvgR[i] += float64(rr[i])
		}
		d.I = append(d.I, ri)
		d.R = append(d.R, rr)
	}
	n := float64(len(sr.Benchmarks))
	for i := range idx {
		d.AvgI[i] /= n
		d.AvgR[i] /= n
	}
	return d, nil
}

// Grid renders Table II.
func (d *TableIIData) Grid() *Grid {
	g := &Grid{Title: "Table II: instructions (#I) and devices (#R)"}
	g.Columns = []string{"benchmark", "PI/PO"}
	for _, name := range d.ConfigNames {
		g.Columns = append(g.Columns, name+" #I", name+" #R")
	}
	for b := range d.Benchmarks {
		row := []string{d.Benchmarks[b], fmt.Sprintf("%d/%d", d.PIPO[b][0], d.PIPO[b][1])}
		for i := range d.ConfigNames {
			row = append(row, fmt.Sprintf("%d", d.I[b][i]), fmt.Sprintf("%d", d.R[b][i]))
		}
		g.Rows = append(g.Rows, row)
	}
	avg := []string{"AVG", ""}
	for i := range d.ConfigNames {
		avg = append(avg, fmt.Sprintf("%.2f", d.AvgI[i]), fmt.Sprintf("%.2f", d.AvgR[i]))
	}
	g.Rows = append(g.Rows, avg)
	return g
}

// TableIIICell is one cap's outcome on one benchmark.
type TableIIICell struct {
	I, R   int
	StdDev float64
	// Unchanged marks cells equal to the previous (tighter) cap — the
	// paper prints dashes for these, because the cap exceeds the natural
	// maximum write count.
	Unchanged bool
}

// TableIIIData is the paper's Table III: the cap trade-off.
type TableIIIData struct {
	Caps       []uint64
	Benchmarks []string
	PIPO       [][2]int
	Cells      [][]TableIIICell // [benchmark][cap]
	AvgI       []float64
	AvgR       []float64
	AvgSD      []float64
}

// TableIII projects a suite result whose configurations are FullCap values
// in ascending cap order.
func TableIII(sr *SuiteResult) (*TableIIIData, error) {
	d := &TableIIIData{}
	for _, c := range sr.Configs {
		if c.MaxWrites == 0 {
			return nil, fmt.Errorf("tables: Table III wants capped configurations, got %q", c.Name)
		}
		d.Caps = append(d.Caps, c.MaxWrites)
	}
	n := len(sr.Configs)
	d.AvgI = make([]float64, n)
	d.AvgR = make([]float64, n)
	d.AvgSD = make([]float64, n)
	for b, info := range sr.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, info.Name)
		d.PIPO = append(d.PIPO, [2]int{info.PI, info.PO})
		row := make([]TableIIICell, n)
		for c, rep := range sr.Reports[b] {
			row[c] = TableIIICell{
				I:      rep.NumInstructions(),
				R:      rep.NumRRAMs(),
				StdDev: rep.Writes.StdDev,
			}
			if c > 0 && row[c].I == row[c-1].I && row[c].R == row[c-1].R &&
				row[c].StdDev == row[c-1].StdDev {
				row[c].Unchanged = true
			}
			d.AvgI[c] += float64(row[c].I)
			d.AvgR[c] += float64(row[c].R)
			d.AvgSD[c] += row[c].StdDev
		}
		d.Cells = append(d.Cells, row)
	}
	bn := float64(len(sr.Benchmarks))
	for c := range sr.Configs {
		d.AvgI[c] /= bn
		d.AvgR[c] /= bn
		d.AvgSD[c] /= bn
	}
	return d, nil
}

// Grid renders Table III with the paper's dashes for unchanged cells.
func (d *TableIIIData) Grid() *Grid {
	g := &Grid{Title: "Table III: full endurance management under maximum write constraints"}
	g.Columns = []string{"benchmark", "PI/PO"}
	for _, cap := range d.Caps {
		g.Columns = append(g.Columns,
			fmt.Sprintf("cap%d #I", cap), fmt.Sprintf("cap%d #R", cap), fmt.Sprintf("cap%d STDEV", cap))
	}
	for b := range d.Benchmarks {
		row := []string{d.Benchmarks[b], fmt.Sprintf("%d/%d", d.PIPO[b][0], d.PIPO[b][1])}
		for _, cell := range d.Cells[b] {
			if cell.Unchanged {
				row = append(row, "-", "-", "-")
			} else {
				row = append(row, fmt.Sprintf("%d", cell.I), fmt.Sprintf("%d", cell.R), fmt.Sprintf("%.2f", cell.StdDev))
			}
		}
		g.Rows = append(g.Rows, row)
	}
	avg := []string{"AVG", ""}
	for c := range d.Caps {
		avg = append(avg, fmt.Sprintf("%.2f", d.AvgI[c]), fmt.Sprintf("%.2f", d.AvgR[c]), fmt.Sprintf("%.2f", d.AvgSD[c]))
	}
	g.Rows = append(g.Rows, avg)
	return g
}
