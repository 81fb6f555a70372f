package analyzers

import "testing"

// FuzzAllowDirective fuzzes parseGuardDirective (`// guarded by mu`), the
// comment parser lockguard hangs off. Two properties:
//
//  1. Totality: arbitrary comment bytes never panic the parser (the
//     harness itself is the assertion — a panic fails the fuzz run).
//  2. Round-trip: whatever it accepts, re-rendered in canonical form,
//     parses back to the identical guard. A parser that accepts a name it
//     cannot re-parse would make an annotation silently unaddressable.
func FuzzAllowDirective(f *testing.F) {
	// The retired `//lint:allow` spellings stay as seeds: the guard parser
	// must reject them.
	f.Add("//lint:allow ctxflow queue is a lifecycle root")
	f.Add("// lint:allow lockguard,ctxflow reason text")
	f.Add("//lint:allow ,,,")
	f.Add("// guarded by mu")
	f.Add("//guarded by labelMu.")
	f.Add("// guarded by 0bad")
	f.Add("// want \"something\"")
	f.Add("//lint:allow")
	f.Add("///lint:allow all x")
	f.Add(string([]byte{0x00, 0xff, '/', '/', 'l'}))
	f.Fuzz(func(t *testing.T, text string) {
		guard, ok := parseGuardDirective(text)
		if !ok {
			return
		}
		if guard == "" {
			t.Fatalf("parseGuardDirective(%q) accepted but returned empty guard", text)
		}
		again, ok2 := parseGuardDirective("// guarded by " + guard)
		if !ok2 || again != guard {
			t.Fatalf("parseGuardDirective round-trip: %q -> %q (ok=%v)", guard, again, ok2)
		}
	})
}
