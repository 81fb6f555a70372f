package serve

import (
	"testing"

	"nanometer/internal/render"
	"nanometer/internal/repro"
)

// TestETagsPinned fixes etagFor's output byte for byte: clients and
// caches hold these tags across daemon upgrades, so rebuilding the tag
// must not move it.
func TestETagsPinned(t *testing.T) {
	enc := func(format string, text render.Text) render.Encoding {
		e, err := render.NewEncoding(format, text)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, tc := range []struct {
		id   string
		opts repro.Options
		enc  render.Encoding
		want string
	}{
		{"t2", repro.Options{}, enc("text", render.Text{}), `"t2-baad870e0c747b3c-text"`},
		{"t2", repro.Options{}, enc("json", render.Text{}), `"t2-baad870e0c747b3c-json"`},
		{"f3", repro.Options{}, enc("csv", render.Text{}), `"f3-baad870e0c747b3c-csv"`},
		{"c7", repro.Options{}, enc("text", render.Text{Verbose: true}), `"c7-baad870e0c747b3c-textv"`},
		{"f2", repro.Options{}, enc("text", render.Text{Plot: true}), `"f2-baad870e0c747b3c-textp"`},
		{"f2", repro.Options{}, enc("text", render.Text{Verbose: true, Plot: true}), `"f2-baad870e0c747b3c-textvp"`},
		{"c8", repro.Options{MeshN: 255}, enc("text", render.Text{}), `"c8-74ff83df0c2c4d65-text"`},
		{"", repro.Options{}, enc("text", render.Text{}), `"-baad870e0c747b3c-text"`},
	} {
		if got := etagFor(tc.id, tc.opts, tc.enc); got != tc.want {
			t.Errorf("etagFor(%q, %+v, %s) = %s, want %s", tc.id, tc.opts, tc.enc.Format(), got, tc.want)
		}
	}
}
