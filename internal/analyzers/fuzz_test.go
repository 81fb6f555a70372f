package analyzers

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzAllowDirective fuzzes the two comment-directive parsers the
// suppression and lockguard machinery hang off: parseAllowDirective
// (`//lint:allow name1,name2 reason`) and parseGuardDirective
// (`// guarded by mu`). Two properties:
//
//  1. Totality: arbitrary comment bytes never panic either parser (the
//     harness itself is the assertion — a panic fails the fuzz run).
//  2. Round-trip: whatever a parser accepts, re-rendered in canonical
//     form, parses back to the identical value. A parser that accepts a
//     name it cannot re-parse would make a suppression silently
//     unaddressable.
func FuzzAllowDirective(f *testing.F) {
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
		names, ok := parseAllowDirective(text)
		if ok {
			if len(names) == 0 {
				t.Fatalf("parseAllowDirective(%q) accepted but returned no names", text)
			}
			for _, n := range names {
				if n == "" || strings.ContainsRune(n, ',') {
					t.Fatalf("parseAllowDirective(%q) returned malformed name %q", text, n)
				}
				for _, r := range n {
					if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
						t.Fatalf("parseAllowDirective(%q) returned name %q with unexpected rune %q", text, n, r)
					}
				}
			}
			// Round-trip: the canonical rendering of the accepted names
			// must parse back to the same list.
			again, ok2 := parseAllowDirective("//lint:allow " + strings.Join(names, ",") + " reason")
			if !ok2 || strings.Join(again, ",") != strings.Join(names, ",") {
				t.Fatalf("parseAllowDirective round-trip: %v -> %v (ok=%v)", names, again, ok2)
			}
		}

		guard, gok := parseGuardDirective(text)
		if gok {
			if guard == "" {
				t.Fatalf("parseGuardDirective(%q) accepted but returned empty guard", text)
			}
			again, ok2 := parseGuardDirective("// guarded by " + guard)
			if !ok2 || again != guard {
				t.Fatalf("parseGuardDirective round-trip: %q -> %q (ok=%v)", guard, again, ok2)
			}
		}
	})
}
