package main

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string // the experiments to run; nil when in must be refused
		bad  string   // the name a refusal must quote
	}{
		{in: "fig11", want: []string{"fig11"}},
		{in: "fig11, table2", want: []string{"fig11", "table2"}},
		{in: "all", want: experiments},
		{in: "motivating,all", want: experiments},
		{in: "fig11,bogus", bad: "bogus"},
		{in: "fig11,open", bad: "open"},
		{in: "crash", bad: "crash"},
		{in: "fig11,", bad: ""},
	} {
		got, err := parseExperiments(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: runs %v, want a refusal", tc.in, slices.Sorted(maps.Keys(got)))
			} else if !strings.Contains(err.Error(), strconv.Quote(tc.bad)) {
				t.Errorf("%q: error %q does not name %q", tc.in, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if g, w := slices.Sorted(maps.Keys(got)), slices.Sorted(slices.Values(tc.want)); !slices.Equal(g, w) {
			t.Errorf("%q: runs %v, want %v", tc.in, g, w)
		}
	}
}
