package isa

// GoldenPrograms returns the hand-coded programs of the unit tests plus
// degenerate shapes (empty, constants-only, negated outputs): the seeds of
// the fuzz targets, which run in package isa_test to reach internal/cost.
func GoldenPrograms() []*Program {
	return []*Program{
		andnProgram(),
		andProgram(),
		build(Parts{Name: "", NumCells: 1, POs: []PORef{{Addr: 0}}}),
		build(Parts{
			Name:     "neg",
			NumCells: 4,
			PICells:  []uint32{0, 1, 2},
			POs:      []PORef{{Addr: 3, Neg: true}, {Addr: 0}},
			Insts: []Instruction{
				{A: One, B: Zero, Z: 3},
				{A: Cell(0), B: Cell(1), Z: 3},
				{A: Zero, B: Cell(2), Z: 3},
			},
		}),
	}
}
