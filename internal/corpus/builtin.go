package corpus

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Built-in corpus. Registration order is the canonical listing order:
// the paper's original DUT first, then the new families.
func init() {
	mustRegister(macEntry())
	mustRegister(aluEntry())
	mustRegister(arbEntry())
	mustRegister(uartEntry())
	mustRegister(randomEntry())
}

// macConfig returns the MAC generator configuration at a scale.
func macConfig(scale Scale) circuit.MACConfig {
	if scale == ScaleSmall {
		// The quickstart scale: structural FF count (~600), shallow FIFOs.
		return circuit.MACConfig{FIFODepth: 16, StatWidth: 8}
	}
	return circuit.DefaultMACConfig()
}

// newMACEntry is the one place a MAC device meets its testbench and failure
// criterion: the registered mac10ge family and MACScenario are both built
// here, so the paper's study and the corpus entry cannot drift apart. Its
// workloads build through macBench, which asks a workload only for its bench
// configuration at a scale and seed; the FIFO depth follows the device.
func newMACEntry(mac func(Scale) circuit.MACConfig, workloads ...Workload) *Entry {
	return &Entry{
		Name:        "mac10ge",
		Description: "MAC10GE-lite: the paper's store-and-forward 10GE MAC with CRC-32 and RMON counters",
		Generate: func(scale Scale, seed int64) (*netlist.Netlist, error) {
			return circuit.NewMAC10GE(mac(scale))
		},
		Workloads: workloads,
		Defaults:  Geometry{InjectionsPerFF: 170, CampaignSeed: 2019},
	}
}

func macBench(mac func(Scale) circuit.MACConfig, config func(Scale, int64) circuit.MACBenchConfig) func(*sim.Program, Scale, int64) (*Bench, error) {
	return func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
		cfg := config(scale, seed)
		cfg.FIFODepth = mac(scale).FIFODepth
		bench, err := circuit.BuildMACBench(p, cfg)
		if err != nil {
			return nil, err
		}
		return &Bench{
			Stim:         bench.Stim,
			Monitors:     bench.Monitors,
			ActiveCycles: bench.ActiveCycles,
			Classifier:   fault.NewMACClassifier(bench, true),
		}, nil
	}
}

const loopbackDescription = "the paper's testbench: packets through the XGMII loopback plus a statistics sweep"

// MACScenario is the paper's study as a scenario outside the registry: the
// MAC generated from mac under the loopback testbench bench, whatever scale
// and seed it is materialized at. core.NewStudy runs on it, so the MAC goes
// through the same front end and the same runner wiring as every corpus
// entry.
func MACScenario(mac circuit.MACConfig, bench circuit.MACBenchConfig) Scenario {
	fixed := func(Scale) circuit.MACConfig { return mac }
	e := newMACEntry(fixed, Workload{
		Name:        "loopback",
		Description: loopbackDescription,
		Build:       macBench(fixed, func(Scale, int64) circuit.MACBenchConfig { return bench }),
	})
	return Scenario{Entry: e, Workload: &e.Workloads[0]}
}

func macEntry() *Entry {
	return newMACEntry(macConfig,
		Workload{
			Name:        "loopback",
			Description: loopbackDescription,
			Build: macBench(macConfig, func(scale Scale, seed int64) circuit.MACBenchConfig {
				cfg := circuit.DefaultMACBenchConfig()
				cfg.Seed = uint64(seed)*0x9E3779B97F4A7C15 | 1
				if scale == ScaleSmall {
					cfg.Packets = 6
					cfg.MinPayload = 4
					cfg.MaxPayload = 6
				}
				return cfg
			}),
		},
		Workload{
			Name:        "bursty",
			Description: "many short frames at minimum inter-frame gap: the FIFO/framer stress profile",
			Build: macBench(macConfig, func(scale Scale, seed int64) circuit.MACBenchConfig {
				cfg := circuit.DefaultMACBenchConfig()
				cfg.Seed = uint64(seed)*0xD1B54A32D192ED03 | 1
				cfg.MinPayload = 2
				cfg.MaxPayload = 4
				cfg.Gap = 2
				cfg.Packets = 10
				if scale != ScaleSmall {
					cfg.Packets = 24
				}
				return cfg
			}),
		})
}

func aluConfig(scale Scale) circuit.ALUConfig {
	if scale == ScaleSmall {
		return circuit.SmallALUConfig()
	}
	return circuit.DefaultALUConfig()
}

func aluEntry() *Entry {
	ops := func(scale Scale) int {
		if scale == ScaleSmall {
			return 192
		}
		return 384
	}
	return &Entry{
		Name:        "alupipe",
		Description: "three-stage pipelined ALU datapath with hardened accumulator and MISR signature",
		Generate: func(scale Scale, seed int64) (*netlist.Netlist, error) {
			return circuit.NewALUPipe(aluConfig(scale))
		},
		Workloads: []Workload{
			{
				Name:        "randomops",
				Description: "uniform random opcodes and operands at ~75% duty cycle",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					return aluOps(p, aluConfig(scale).Width, ops(scale), seed)
				},
			},
			{
				Name:        "streaming",
				Description: "back-to-back operations every cycle, cycling opcodes",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					return aluStream(p, aluConfig(scale).Width, ops(scale), seed)
				},
			},
		},
		Defaults: Geometry{InjectionsPerFF: 128, CampaignSeed: 2019},
	}
}

func arbConfig(scale Scale) circuit.ArbConfig {
	if scale == ScaleSmall {
		return circuit.SmallArbConfig()
	}
	return circuit.DefaultArbConfig()
}

func arbEntry() *Entry {
	cycles := func(scale Scale) int {
		if scale == ScaleSmall {
			return 256
		}
		return 512
	}
	return &Entry{
		Name:        "rrarb",
		Description: "round-robin arbiter/switch-fabric slice with per-port queues and TMR pointer",
		Generate: func(scale Scale, seed int64) (*netlist.Netlist, error) {
			return circuit.NewRRArb(arbConfig(scale))
		},
		Workloads: []Workload{
			{
				Name:        "uniform",
				Description: "symmetric random traffic on every requester port",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					cfg := arbConfig(scale)
					prob := make([]uint64, cfg.Ports)
					for i := range prob {
						prob[i] = 6
					}
					return arbTraffic(p, cfg.Ports, cfg.DataWidth, cycles(scale), prob, seed)
				},
			},
			{
				Name:        "hotspot",
				Description: "one saturated requester against lightly loaded neighbours",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					cfg := arbConfig(scale)
					prob := make([]uint64, cfg.Ports)
					prob[0] = 14
					for i := 1; i < cfg.Ports; i++ {
						prob[i] = 2
					}
					return arbTraffic(p, cfg.Ports, cfg.DataWidth, cycles(scale), prob, seed)
				},
			},
		},
		Defaults: Geometry{InjectionsPerFF: 128, CampaignSeed: 2019},
	}
}

func uartConfig(scale Scale) circuit.UARTConfig {
	if scale == ScaleSmall {
		return circuit.SmallUARTConfig()
	}
	return circuit.DefaultUARTConfig()
}

func uartEntry() *Entry {
	return &Entry{
		Name:        "uartser",
		Description: "UART-style serializer: TX FIFO, baud timer, framer with parity, line signature",
		Generate: func(scale Scale, seed int64) (*netlist.Netlist, error) {
			return circuit.NewUARTSer(uartConfig(scale))
		},
		Workloads: []Workload{
			{
				Name:        "paced",
				Description: "bytes pushed at roughly line rate, FIFO nearly empty",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					cfg := uartConfig(scale)
					frame := circuit.FrameBits * cfg.Divisor
					return uartBytes(p, 8, frame+2*cfg.Divisor, 3*frame, seed)
				},
			},
			{
				Name:        "burst",
				Description: "a back-to-back burst saturating the FIFO, then a full drain",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					cfg := uartConfig(scale)
					frame := circuit.FrameBits * cfg.Divisor
					return uartBurst(p, cfg.FIFODepth+4, (cfg.FIFODepth+3)*frame, seed)
				},
			},
		},
		Defaults: Geometry{InjectionsPerFF: 128, CampaignSeed: 2019},
	}
}

func randomEntry() *Entry {
	cfg := func(scale Scale) circuit.RandomConfig {
		if scale == ScaleSmall {
			return circuit.RandomConfig{Inputs: 4, FFs: 48, Gates: 220, Outputs: 6}
		}
		return circuit.RandomConfig{Inputs: 6, FFs: 160, Gates: 800, Outputs: 8}
	}
	return &Entry{
		Name:        "random",
		Description: "seeded random sequential circuit: the adversarial no-structure baseline",
		Generate: func(scale Scale, seed int64) (*netlist.Netlist, error) {
			return circuit.RandomCircuit(cfg(scale), seed)
		},
		Workloads: []Workload{
			{
				Name:        "noise",
				Description: "independent random toggling on every primary input",
				Build: func(p *sim.Program, scale Scale, seed int64) (*Bench, error) {
					cycles := 256
					if scale != ScaleSmall {
						cycles = 512
					}
					return randomNoise(p, cycles, seed)
				},
			},
		},
		Defaults: Geometry{InjectionsPerFF: 64, CampaignSeed: 2019},
	}
}
