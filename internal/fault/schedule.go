package fault

// Schedule selects how an injection plan's jobs are packed into the 64-lane
// groups that wide batches are made of. The packing never changes campaign
// results — the merge stage maps every lane back to its job — but it
// decides how much golden fast-forward saves: it skips everything before a
// batch's earliest injection cycle, so a batch spanning a narrow cycle
// window skips nearly the whole shared prefix, while a batch mixing cycle-0
// and late injections skips nothing.
type Schedule string

const (
	// ScheduleClustered packs jobs in ascending injection-cycle order, so
	// every batch covers a narrow cycle window. Every new campaign does.
	ScheduleClustered Schedule = "clustered"
	// SchedulePlan packs jobs in plan order — the naive layout, and the
	// layout of checkpoints written before schedules existed, which is
	// where it still comes from: a resumed campaign keeps its packing.
	SchedulePlan Schedule = "plan"
)

// valid reports whether s names a known schedule ("" selects the default).
func (s Schedule) valid() bool {
	return s == "" || s == ScheduleClustered || s == SchedulePlan
}

// normalizeCheckpointSchedule resolves the schedule recorded in a
// checkpoint. Files written before the field existed carry "" and were
// packed in plan order.
func normalizeCheckpointSchedule(s string) Schedule {
	if s == "" {
		return SchedulePlan
	}
	return Schedule(s)
}

// scheduleOrder returns the lane-packing permutation for a plan under a
// valid schedule: scheduled position i carries job order[i]. A nil return
// means the identity (plan order). The permutation is a pure, deterministic
// function of (jobs, schedule) — resumes recompute it, so checkpointed masks
// stay aligned.
func scheduleOrder(jobs []Job, s Schedule) []int {
	if s == SchedulePlan {
		return nil
	}
	// Stable counting sort by injection cycle: plans are large (FFs ×
	// injections) and cycles are dense, so this is O(jobs + cycles) and
	// keeps equal-cycle jobs in plan order.
	maxCycle := 0
	for _, j := range jobs {
		if j.Cycle > maxCycle {
			maxCycle = j.Cycle
		}
	}
	counts := make([]int, maxCycle+2)
	for _, j := range jobs {
		counts[j.Cycle+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	order := make([]int, len(jobs))
	for i, j := range jobs {
		order[counts[j.Cycle]] = i
		counts[j.Cycle]++
	}
	return order
}

// jobIndex maps a scheduled position to its plan index.
func jobIndex(order []int, pos int) int {
	if order == nil {
		return pos
	}
	return order[pos]
}
