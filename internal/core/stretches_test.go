package core

import (
	"reflect"
	"testing"
)

func TestStretches(t *testing.T) {
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	even := func(p int) bool { return p%2 == 0 }
	tests := []struct {
		name string
		b    Block
		ok   func(int) bool
		want []Block
	}{
		{"empty block", Block{Start: 3, End: 3}, all, nil},
		{"all positions", Block{Start: 2, End: 6}, all, []Block{{Start: 2, End: 6}}},
		{"none", Block{Start: 2, End: 6}, none, nil},
		{"alternating", Block{Start: 0, End: 5}, even,
			[]Block{{Start: 0, End: 1}, {Start: 2, End: 3}, {Start: 4, End: 5}}},
		{"stretch ends at block end", Block{Start: 1, End: 7},
			func(p int) bool { return p == 2 || p >= 4 },
			[]Block{{Start: 2, End: 3}, {Start: 4, End: 7}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := stretches(nil, tc.b, tc.ok); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("stretches(%v) = %v, want %v", tc.b, got, tc.want)
			}
		})
	}
	// stretches appends: earlier entries of out stay in front.
	prev := []Block{{Start: 0, End: 1}}
	got := stretches(prev, Block{Start: 4, End: 6}, all)
	if want := []Block{{Start: 0, End: 1}, {Start: 4, End: 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("stretches appended %v, want %v", got, want)
	}
}
