package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The .gnl plain-text netlist format, one statement per line:
//
//	# comment
//	design <name>
//	input <net>
//	cell <instance> <type> out=<net> [in=<net>,<net>,...] [init=0|1]
//	output <port> <net>
//
// Nets are declared by `input` lines and by `out=` clauses; `in=` clauses may
// reference nets declared anywhere in the file (two-pass resolution), which
// permits sequential feedback loops.

// Write serializes nl in .gnl format.
func Write(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "design %s\n", nl.Name)
	for _, in := range nl.Inputs {
		fmt.Fprintf(bw, "input %s\n", nl.Nets[in].Name)
	}
	for ci := range nl.Cells {
		c := &nl.Cells[ci]
		fmt.Fprintf(bw, "cell %s %s out=%s", c.Name, c.Type.Name, nl.Nets[c.Output].Name)
		if len(c.Inputs) > 0 {
			names := make([]string, len(c.Inputs))
			for i, id := range c.Inputs {
				names[i] = nl.Nets[id].Name
			}
			fmt.Fprintf(bw, " in=%s", strings.Join(names, ","))
		}
		if c.Type.IsSequential() {
			init := 0
			if c.Init {
				init = 1
			}
			fmt.Fprintf(bw, " init=%d", init)
		}
		bw.WriteByte('\n')
	}
	for i, out := range nl.Outputs {
		fmt.Fprintf(bw, "output %s %s\n", nl.OutputNames[i], nl.Nets[out].Name)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("netlist: write: %w", err)
	}
	return nil
}

type parsedCell struct {
	line     int
	inst     string
	typeName string
	outNet   string
	inNets   []string
	init     bool
}

// Parse reads a .gnl netlist. The result is validated before being returned.
func Parse(r io.Reader) (*Netlist, error) {
	lib := StdLib()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	var (
		nl      *Netlist
		cells   []parsedCell
		inputs  []string
		outputs [][2]string // {port, net}
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "design":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: design wants one name", lineNo)
			}
			if nl != nil {
				return nil, fmt.Errorf("netlist: line %d: duplicate design statement", lineNo)
			}
			nl = NewNetlist(fields[1])
		case "input":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: input wants one net", lineNo)
			}
			inputs = append(inputs, fields[1])
		case "output":
			switch len(fields) {
			case 2: // shorthand: port name equals net name
				outputs = append(outputs, [2]string{fields[1], fields[1]})
			case 3:
				outputs = append(outputs, [2]string{fields[1], fields[2]})
			default:
				return nil, fmt.Errorf("netlist: line %d: output wants a port and a net", lineNo)
			}
		case "cell":
			if len(fields) < 4 {
				return nil, fmt.Errorf("netlist: line %d: cell wants instance, type and clauses", lineNo)
			}
			pc := parsedCell{line: lineNo, inst: fields[1], typeName: fields[2]}
			for _, clause := range fields[3:] {
				key, val, ok := strings.Cut(clause, "=")
				if !ok {
					return nil, fmt.Errorf("netlist: line %d: malformed clause %q", lineNo, clause)
				}
				switch key {
				case "out":
					pc.outNet = val
				case "in":
					if val != "" {
						pc.inNets = strings.Split(val, ",")
					}
				case "init":
					switch val {
					case "0":
						pc.init = false
					case "1":
						pc.init = true
					default:
						return nil, fmt.Errorf("netlist: line %d: init must be 0 or 1, got %q", lineNo, val)
					}
				default:
					return nil, fmt.Errorf("netlist: line %d: unknown clause %q", lineNo, key)
				}
			}
			if pc.outNet == "" {
				return nil, fmt.Errorf("netlist: line %d: cell %q has no out= clause", lineNo, pc.inst)
			}
			cells = append(cells, pc)
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	if nl == nil {
		return nil, fmt.Errorf("netlist: missing design statement")
	}

	// Pass 1: declare all nets.
	for _, name := range inputs {
		id, err := nl.AddNet(name, -1)
		if err != nil {
			return nil, err
		}
		nl.Inputs = append(nl.Inputs, id)
	}
	for i, pc := range cells {
		if _, err := nl.AddNet(pc.outNet, CellID(i)); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", pc.line, err)
		}
	}

	// Pass 2: resolve cell pins.
	for _, pc := range cells {
		ct, err := lib.Lookup(pc.typeName)
		if err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", pc.line, err)
		}
		if pc.init && !ct.IsSequential() {
			return nil, fmt.Errorf("netlist: line %d: init=1 on combinational cell %q", pc.line, pc.inst)
		}
		ins := make([]NetID, len(pc.inNets))
		for i, name := range pc.inNets {
			id, ok := nl.FindNet(name)
			if !ok {
				return nil, fmt.Errorf("netlist: line %d: unknown net %q", pc.line, name)
			}
			ins[i] = id
		}
		out, _ := nl.FindNet(pc.outNet)
		nl.Cells = append(nl.Cells, Cell{
			Name:   pc.inst,
			Type:   ct,
			Inputs: ins,
			Output: out,
			Init:   pc.init,
		})
	}
	for _, o := range outputs {
		id, ok := nl.FindNet(o[1])
		if !ok {
			return nil, fmt.Errorf("netlist: unknown output net %q", o[1])
		}
		nl.Outputs = append(nl.Outputs, id)
		nl.OutputNames = append(nl.OutputNames, o[0])
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}
