package netlist

import "repro/internal/durable"

// Fingerprint returns a stable 64-bit digest of the netlist structure: the
// design name, every net (name and driver), every cell (name, type, drive,
// pin connectivity and initial state) and the port bindings, all in
// definition order. Two netlists fingerprint equal iff a generator produced
// them identically, which lets the circuit corpus pin generator determinism
// ("same config and seed → the same circuit") without storing golden
// netlist files.
func (n *Netlist) Fingerprint() uint64 {
	d := durable.NewDigest()
	d.Str(n.Name)
	d.Int(len(n.Nets))
	for i := range n.Nets {
		d.Str(n.Nets[i].Name)
		d.Int(int(n.Nets[i].Driver))
	}
	d.Int(len(n.Cells))
	for i := range n.Cells {
		c := &n.Cells[i]
		d.Str(c.Name)
		d.Str(c.Type.Name)
		d.Int(c.Type.Drive)
		d.Int(len(c.Inputs))
		for _, in := range c.Inputs {
			d.Int(int(in))
		}
		d.Int(int(c.Output))
		if c.Init {
			d.Int(1)
		} else {
			d.Int(0)
		}
	}
	d.Int(len(n.Inputs))
	for _, in := range n.Inputs {
		d.Int(int(in))
	}
	d.Int(len(n.Outputs))
	for i, out := range n.Outputs {
		d.Str(n.OutputNames[i])
		d.Int(int(out))
	}
	return d.Sum()
}
