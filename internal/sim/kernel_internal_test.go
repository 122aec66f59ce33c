package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestKinstrLayout pins the instruction layout Eval's assembly reads: a
// 32-byte kinstr, the int32 slots dst at 0 and a…f at 4…24, the opcode byte
// at 28. The assembly takes the offsets from go_asm.h, but its loads are
// 4-byte slot loads, a 1-byte opcode load and a 32-byte row stride.
func TestKinstrLayout(t *testing.T) {
	var ins kinstr
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"size", unsafe.Sizeof(ins), 32},
		{"dst", unsafe.Offsetof(ins.dst), 0},
		{"a", unsafe.Offsetof(ins.a), 4},
		{"b", unsafe.Offsetof(ins.b), 8},
		{"c", unsafe.Offsetof(ins.c), 12},
		{"d", unsafe.Offsetof(ins.d), 16},
		{"e", unsafe.Offsetof(ins.e), 20},
		{"f", unsafe.Offsetof(ins.f), 24},
		{"op", unsafe.Offsetof(ins.op), 28},
		{"slot width", unsafe.Sizeof(ins.a), 4},
		{"opcode width", unsafe.Sizeof(ins.op), 1},
		{"row", unsafe.Sizeof(krow{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("kinstr %s is %d, the assembly reads %d", c.name, c.got, c.want)
		}
	}
}

// TestCheckSlotsRefusesOutOfRange feeds checkSlots a kernel whose one
// instruction names, in each of its seven slot fields in turn, the slot
// one past the register file and a negative slot: each is an error naming
// the slot, and the instruction with every field in range is not.
func TestCheckSlotsRefusesOutOfRange(t *testing.T) {
	k := &Kernel{slots: 6, code: []kinstr{{dst: 5, a: 0, b: 1, c: 2, d: 3, e: 4, f: 5, op: kAO222}}}
	if err := k.checkSlots(); err != nil {
		t.Fatalf("in-range kernel refused: %v", err)
	}
	ins := &k.code[0]
	for i, field := range []*int32{&ins.dst, &ins.a, &ins.b, &ins.c, &ins.d, &ins.e, &ins.f} {
		keep := *field
		for _, bad := range []int32{6, -1} {
			*field = bad
			want := fmt.Sprintf("slot %d of 6", bad)
			if err := k.checkSlots(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("field %d = %d: checkSlots returned %v, want an error naming %q", i, bad, err, want)
			}
		}
		*field = keep
	}
}
