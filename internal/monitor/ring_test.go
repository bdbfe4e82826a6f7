package monitor

import (
	"reflect"
	"testing"
)

func TestRingPushEvictsOldest(t *testing.T) {
	r := newRing[int](3)
	if r.len() != 0 {
		t.Fatalf("fresh ring len %d", r.len())
	}
	for i := 1; i <= 5; i++ {
		r.push(i)
	}
	if got := r.values(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("contents %v, want [3 4 5]", got)
	}
}

func TestRingSegsWraparound(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 6; i++ { // head has wrapped past the start
		r.push(i)
	}
	a, b := r.segs()
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("expected two segments after wraparound, got %v / %v", a, b)
	}
	if got := r.values(); !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("contents %v, want [2 3 4 5]", got)
	}
}

func TestRingSegsContiguous(t *testing.T) {
	r := newRing[int](4)
	r.push(7)
	r.push(8)
	a, b := r.segs()
	if !reflect.DeepEqual(a, []int{7, 8}) || b != nil {
		t.Fatalf("segs = %v / %v, want [7 8] / nil", a, b)
	}
	var empty ring[int] = newRing[int](2)
	a, b = empty.segs()
	if a != nil || b != nil {
		t.Fatalf("empty segs = %v / %v", a, b)
	}
}

func TestRingCapacityFloor(t *testing.T) {
	r := newRing[int](0)
	r.push(1)
	r.push(2)
	if got := r.values(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("zero-capacity ring floored to 1: contents %v, want [2]", got)
	}
}
