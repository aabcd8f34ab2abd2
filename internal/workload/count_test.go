package workload

import "testing"

func TestParseInstructions(t *testing.T) {
	cases := []struct {
		in   string
		min  float64
		want uint64
		ok   bool
	}{
		{"3e8", 1e6, 300_000_000, true},
		{"1e6", 1e6, 1_000_000, true},
		{"2.5e6", 1, 2_500_000, true},
		{"1e19", 1, 10_000_000_000_000_000_000, true},
		{"5e5", 1e6, 0, false},
		{"0", 1, 0, false},
		{"-3e8", 1, 0, false},
		{"NaN", 1e6, 0, false},
		{"Inf", 1e6, 0, false},
		{"+Inf", 1, 0, false},
		{"-Inf", 1, 0, false},
		{"1e30", 1e6, 0, false},
		{"18446744073709551616", 1, 0, false}, // 2⁶⁴
		{"1e400", 1, 0, false},                // ParseFloat range error
		{"lots", 1, 0, false},
	}
	for _, c := range cases {
		got, err := ParseInstructions(c.in, c.min)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseInstructions(%q, %g) = %d, %v; want %d", c.in, c.min, got, err, c.want)
			}
		} else if err == nil {
			t.Errorf("ParseInstructions(%q, %g) = %d, want an error", c.in, c.min, got)
		}
	}
}
