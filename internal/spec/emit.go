package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// The emitter is the write half of the round-trip: Encode renders a
// Sweep as the YAML the parser reads back, so the sweep a CLI compiles
// from its flags can be saved as a reviewable spec file (dynabench and
// dynasim -save-spec).

// Encode renders the sweep as YAML in canonical key order. The output
// parses back to an equal Sweep (asserted by the round-trip tests).
func (s *Sweep) Encode() []byte {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	if s.Name != "" {
		w("name: %s", yamlString(s.Name))
	}
	if s.Description != "" {
		w("description: %s", yamlString(s.Description))
	}
	if len(s.Ns) > 0 {
		w("ns: %s", flowInts(s.Ns))
	}
	if len(s.Pairs) > 0 {
		w("cells:")
		for _, p := range s.Pairs {
			w("  - n: %d", p.N)
			w("    f: %d", p.F)
		}
	}
	if len(s.Fs) > 0 {
		items := make([]string, len(s.Fs))
		for i, f := range s.Fs {
			if f.Expr != "" {
				items[i] = yamlString(f.Expr)
			} else {
				items[i] = strconv.Itoa(f.Lit)
			}
		}
		w("fs: [%s]", strings.Join(items, ", "))
	}
	if len(s.Epss) > 0 {
		items := make([]string, len(s.Epss))
		for i, e := range s.Epss {
			items[i] = formatFloat(e)
		}
		w("epss: [%s]", strings.Join(items, ", "))
	}
	if len(s.Algorithms) > 0 {
		w("algorithms: [%s]", strings.Join(quoteAll(s.Algorithms), ", "))
	}
	if len(s.Adversaries) > 0 {
		w("adversaries: [%s]", strings.Join(quoteAll(s.Adversaries), ", "))
	}
	if len(s.Variants) > 0 {
		w("variants:")
		for _, v := range s.Variants {
			prefix := "  - "
			writeKV := func(key, val string) {
				w("%s%s: %s", prefix, key, val)
				prefix = "    "
			}
			if v.Name != "" {
				writeKV("name", yamlString(v.Name))
			}
			encodeOverrides(v.Overrides, writeKV)
			if prefix == "  - " {
				// A fully-default variant still needs a line to exist.
				w("  - name: \"\"")
			}
		}
	}
	if s.SeedsPerCell != 0 {
		w("seeds_per_cell: %d", s.SeedsPerCell)
	}
	if s.BaseSeed != 0 {
		w("base_seed: %d", s.BaseSeed)
	}
	if s.MaxRounds != 0 {
		w("max_rounds: %d", s.MaxRounds)
	}
	if s.AccountBandwidth {
		w("account_bandwidth: true")
	}
	if s.Inputs != "" {
		w("inputs: %s", yamlString(s.Inputs))
	}
	if s.Construction != "" {
		w("construction: %s", yamlString(s.Construction))
	}
	encodeOverrides(s.Overrides, func(key, val string) { w("%s: %s", key, val) })
	if c := s.Crashes; c != nil {
		w("crashes:")
		if c.Count != "" {
			w("  count: %s", countValue(c.Count))
		}
		if c.Nodes != "" {
			w("  nodes: %s", yamlString(c.Nodes))
		}
		if len(c.NodeList) > 0 {
			w("  nodes: %s", flowInts(c.NodeList))
		}
		if c.Mode != "" {
			w("  mode: %s", yamlString(c.Mode))
		}
		if c.Round != 0 {
			w("  round: %d", c.Round)
		}
		if c.Stagger != 0 {
			w("  stagger: %d", c.Stagger)
		}
		if len(c.Rounds) > 0 {
			w("  rounds: %s", flowInts(c.Rounds))
		}
	}
	if len(s.Byzantine) > 0 {
		w("byzantine:")
		for i := range s.Byzantine {
			c := &s.Byzantine[i]
			prefix := "  - "
			writeKV := func(key, val string) {
				w("%s%s: %s", prefix, key, val)
				prefix = "    "
			}
			if c.Count != "" {
				writeKV("count", countValue(c.Count))
			}
			if c.Nodes != "" {
				writeKV("nodes", yamlString(c.Nodes))
			}
			if len(c.NodeList) > 0 {
				writeKV("nodes", flowInts(c.NodeList))
			}
			writeKV("strategy", yamlString(c.Strategy))
			if len(c.Args) > 0 {
				items := make([]string, len(c.Args))
				for j, a := range c.Args {
					items[j] = formatFloat(a)
				}
				writeKV("args", "["+strings.Join(items, ", ")+"]")
			}
			if c.Seed != nil {
				writeKV("seed", strconv.FormatInt(*c.Seed, 10))
			}
		}
	}
	if s.Stress != nil {
		s.encodeStress(w)
	}
	return []byte(b.String())
}

// encodeOverrides writes the set override keys through writeKV.
func encodeOverrides(o Overrides, writeKV func(key, val string)) {
	if o.Algorithm != "" {
		writeKV("algorithm", yamlString(o.Algorithm))
	}
	if o.hasUnchecked || o.Unchecked {
		writeKV("unchecked", strconv.FormatBool(o.Unchecked))
	}
	if o.Quorum != "" {
		writeKV("quorum", countValue(o.Quorum))
	}
	if o.PEnd != 0 {
		writeKV("p_end", strconv.Itoa(o.PEnd))
	}
	if o.PiggybackWindow != 0 {
		writeKV("piggyback_window", strconv.Itoa(o.PiggybackWindow))
	}
	if o.MegaT != 0 {
		writeKV("mega_t", strconv.Itoa(o.MegaT))
	}
	if o.MaxMessageBytes != 0 {
		writeKV("max_message_bytes", strconv.Itoa(o.MaxMessageBytes))
	}
}

// countValue emits an int-or-symbol value: integers bare, symbols
// quoted.
func countValue(s string) string {
	if _, err := strconv.Atoi(s); err == nil {
		return s
	}
	return yamlString(s)
}

// yamlString quotes a string whenever the bare spelling could re-parse
// as something else.
func yamlString(s string) string {
	bare := s != "" &&
		!strings.ContainsAny(s, "\"'#:[]{},\n") &&
		s != "true" && s != "false" && s != "null" && s != "~" &&
		!strings.HasPrefix(s, "- ") && s != "-" &&
		strings.TrimSpace(s) == s
	if bare {
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			bare = false
		}
	}
	if bare {
		return s
	}
	return strconv.Quote(s)
}

func flowInts(xs []int) string {
	items := make([]string, len(xs))
	for i, x := range xs {
		items[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(items, ", ") + "]"
}

// formatFloat keeps the shortest round-trippable spelling.
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0" // keep floats parsing as floats
	}
	return s
}

// quoteAll YAML-quotes every element as needed.
func quoteAll(items []string) []string {
	out := make([]string, len(items))
	for i, s := range items {
		out[i] = yamlString(s)
	}
	return out
}
