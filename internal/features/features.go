package features

// Vector holds all features of one flip-flop, in the paper's order.
type Vector struct {
	// Structural features (gate-level netlist graph).
	FFFanIn      float64 // flip-flops directly feeding the input cone
	FFFanOut     float64 // flip-flops directly fed by the output cone
	TotalFFsFrom float64 // flip-flops transitively influencing the input
	TotalFFsTo   float64 // flip-flops transitively influenced by the output
	ConnFromPI   float64 // primary inputs in the direct input cone
	ConnToPO     float64 // primary outputs in the direct output cone
	ProxPIMax    float64 // max stages from any connected primary input (-1 if none)
	ProxPIAvg    float64 // average stages from connected primary inputs (-1 if none)
	ProxPIMin    float64 // min stages from any connected primary input (-1 if none)
	ProxPOMax    float64 // max stages to any connected primary output (-1 if none)
	ProxPOAvg    float64 // average stages to connected primary outputs (-1 if none)
	ProxPOMin    float64 // min stages to any connected primary output (-1 if none)
	PartOfBus    float64 // 1 when the instance belongs to a register bus
	BusPosition  float64 // index within the bus, -1 otherwise
	BusLength    float64 // members in the bus, 0 otherwise
	ConnConst    float64 // constant drivers in the direct input cone
	HasFeedback  float64 // 1 when the output loops back to the input
	FeedbackDep  float64 // minimum loop length in stages, -1 without loop

	// Synthesis features (mini technology mapper).
	DriveStrength float64 // X1/X2/X4 drive of the flip-flop cell
	CombFanIn     float64 // combinational cells in the input cone
	CombFanOut    float64 // combinational cells in the output cone
	CombDepth     float64 // longest combinational chain at the output

	// Dynamic features (testbench signal activity).
	At0          float64 // fraction of cycles at logic 0
	At1          float64 // fraction of cycles at logic 1
	StateChanges float64 // number of output transitions
}

// Names lists the feature names in Vector order; it is the CSV header and
// the canonical schema used by reports and ablations.
func Names() []string {
	return []string{
		"ff_fan_in", "ff_fan_out", "total_ffs_from", "total_ffs_to",
		"conn_from_pi", "conn_to_po",
		"prox_pi_max", "prox_pi_avg", "prox_pi_min",
		"prox_po_max", "prox_po_avg", "prox_po_min",
		"part_of_bus", "bus_position", "bus_length",
		"conn_const", "has_feedback", "feedback_depth",
		"drive_strength", "comb_fan_in", "comb_fan_out", "comb_depth",
		"at0", "at1", "state_changes",
	}
}

// NumFeatures is the dimensionality of the feature space.
var NumFeatures = len(Names())

// Group identifies the provenance of a feature, for ablation studies.
type Group int

// Feature groups.
const (
	GroupStructural Group = iota + 1
	GroupSynthesis
	GroupDynamic
)

// Groups returns the group of each feature, aligned with Names.
func Groups() []Group {
	g := make([]Group, 0, NumFeatures)
	for i := 0; i < 18; i++ {
		g = append(g, GroupStructural)
	}
	for i := 0; i < 4; i++ {
		g = append(g, GroupSynthesis)
	}
	for i := 0; i < 3; i++ {
		g = append(g, GroupDynamic)
	}
	return g
}

// array flattens the vector in Names order, by value, for a caller that
// copies it into a row it owns.
func (v *Vector) array() [25]float64 {
	return [...]float64{
		v.FFFanIn, v.FFFanOut, v.TotalFFsFrom, v.TotalFFsTo,
		v.ConnFromPI, v.ConnToPO,
		v.ProxPIMax, v.ProxPIAvg, v.ProxPIMin,
		v.ProxPOMax, v.ProxPOAvg, v.ProxPOMin,
		v.PartOfBus, v.BusPosition, v.BusLength,
		v.ConnConst, v.HasFeedback, v.FeedbackDep,
		v.DriveStrength, v.CombFanIn, v.CombFanOut, v.CombDepth,
		v.At0, v.At1, v.StateChanges,
	}
}

// Matrix is the extracted dataset: one row per flip-flop, columns in Names
// order, plus the instance names for reporting.
type Matrix struct {
	InstanceNames []string
	Rows          [][]float64
}
