package main

import (
	"math"
	"testing"
	"time"
)

// TestHostileFlagsValidate walks accepted and rejected -loss, -jitter
// and -partition values: anything the impairment model cannot honour
// must be refused up front rather than silently applied.
func TestHostileFlagsValidate(t *testing.T) {
	cases := []struct {
		name string
		h    hostileFlags
		ok   bool
	}{
		{"defaults", hostileFlags{}, true},
		{"loss zero", hostileFlags{loss: 0}, true},
		{"loss fraction", hostileFlags{loss: 0.05}, true},
		{"loss one", hostileFlags{loss: 1}, true},
		{"loss negative", hostileFlags{loss: -0.1}, false},
		{"loss above one", hostileFlags{loss: 1.5}, false},
		{"loss NaN", hostileFlags{loss: math.NaN()}, false},
		{"jitter positive", hostileFlags{jitter: 5 * time.Millisecond}, true},
		{"jitter negative", hostileFlags{jitter: -time.Millisecond}, false},
		{"partition cut", hostileFlags{partition: "20s"}, true},
		{"partition cut and heal", hostileFlags{partition: "20s,30s"}, true},
		{"partition spaced", hostileFlags{partition: " 20s , 30s "}, true},
		{"partition garbage", hostileFlags{partition: "soon"}, false},
		{"partition zero cut", hostileFlags{partition: "0s"}, false},
		{"partition negative cut", hostileFlags{partition: "-5s"}, false},
		{"partition heal before cut", hostileFlags{partition: "30s,20s"}, false},
		{"partition heal equals cut", hostileFlags{partition: "20s,20s"}, false},
		{"partition bad heal", hostileFlags{partition: "20s,later"}, false},
	}
	for _, tc := range cases {
		err := tc.h.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted, want an error", tc.name)
		}
	}
}
