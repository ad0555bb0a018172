package tables

import (
	"fmt"

	"plim/internal/stats"
)

// TableCostCell is one configuration's priced totals on one benchmark.
type TableCostCell struct {
	EnergyPJ      float64
	LatencyCycles uint64
	// LifetimeRuns is the per-run lifetime estimate under the model's
	// endurance budget; stats.MaxLifetime means unlimited.
	LifetimeRuns uint64
}

// TableCostData is the cost-model projection of a suite result (not in the
// paper): per-configuration energy, latency and lifetime under one
// instruction cost model. It only exists for suite runs priced with a cost
// model (core.Env.CostModel / plim.WithCostModel).
type TableCostData struct {
	Model       string
	ConfigNames []string
	Benchmarks  []string
	PIPO        [][2]int
	Cells       [][]TableCostCell // [benchmark][config]
	AvgEnergy   []float64
	AvgLatency  []float64
}

// TableCost projects a priced suite result onto the cost table. Every
// report must carry a Cost block (run the suite with a cost model).
func TableCost(sr *SuiteResult) (*TableCostData, error) {
	d := &TableCostData{}
	for _, c := range sr.Configs {
		d.ConfigNames = append(d.ConfigNames, c.Name)
	}
	d.AvgEnergy = make([]float64, len(sr.Configs))
	d.AvgLatency = make([]float64, len(sr.Configs))
	for b, info := range sr.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, info.Name)
		d.PIPO = append(d.PIPO, [2]int{info.PI, info.PO})
		row := make([]TableCostCell, len(sr.Configs))
		for c, rep := range sr.Reports[b] {
			if rep.Cost == nil {
				return nil, fmt.Errorf("tables: cost table needs a priced run (%s/%s has no cost — set core.Env.CostModel)",
					info.Name, sr.Configs[c].Name)
			}
			if d.Model == "" {
				d.Model = rep.Cost.Model
			}
			row[c] = TableCostCell{
				EnergyPJ:      rep.Cost.EnergyPJ,
				LatencyCycles: rep.Cost.LatencyCycles,
				LifetimeRuns:  rep.Cost.LifetimeRuns,
			}
			d.AvgEnergy[c] += row[c].EnergyPJ
			d.AvgLatency[c] += float64(row[c].LatencyCycles)
		}
		d.Cells = append(d.Cells, row)
	}
	n := float64(len(sr.Benchmarks))
	for c := range sr.Configs {
		d.AvgEnergy[c] /= n
		d.AvgLatency[c] /= n
	}
	return d, nil
}

// Grid renders the cost table: per configuration, energy in pJ, latency in
// cycles and the lifetime estimate in runs ("unlimited" for the sentinel).
// Lifetimes are not averaged — the AVG row prints dashes for them, because
// a mean over run counts bounded by different hot cells has no meaning.
func (d *TableCostData) Grid() *Grid {
	g := &Grid{Title: fmt.Sprintf("Cost: energy, latency and lifetime under model %q", d.Model)}
	g.Columns = []string{"benchmark", "PI/PO"}
	for _, name := range d.ConfigNames {
		g.Columns = append(g.Columns, name+" energy(pJ)", name+" latency", name+" lifetime")
	}
	for b := range d.Benchmarks {
		row := []string{d.Benchmarks[b], fmt.Sprintf("%d/%d", d.PIPO[b][0], d.PIPO[b][1])}
		for _, cell := range d.Cells[b] {
			row = append(row,
				fmt.Sprintf("%.2f", cell.EnergyPJ),
				fmt.Sprintf("%d", cell.LatencyCycles),
				stats.FormatLifetime(cell.LifetimeRuns))
		}
		g.Rows = append(g.Rows, row)
	}
	avg := []string{"AVG", ""}
	for c := range d.ConfigNames {
		avg = append(avg, fmt.Sprintf("%.2f", d.AvgEnergy[c]), fmt.Sprintf("%.2f", d.AvgLatency[c]), "-")
	}
	g.Rows = append(g.Rows, avg)
	return g
}
