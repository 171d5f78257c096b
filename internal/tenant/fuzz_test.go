package tenant

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzParseConfig fuzzes the -tenants config decoder: it never panics,
// and what it allocates is bounded by the document's length.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(`<tenants>
  <tenant id="acme" secret="s3" weight="4" rate="100" max-inflight="8"/>
  <tenant id="hog"  secret="s7" weight="1" rate="20"  burst="5"/>
</tenants>`))
	f.Add([]byte(`<tenants><tenant id="x" rate="1e308" burst="-1" max-journal-bytes="9223372036854775808"/></tenants>`))
	f.Add([]byte(`<tenants><tenant secret="no id"/></tenants>`))
	f.Add([]byte(`<tenant id="not-a-list"/>`))
	f.Add([]byte(`<tenants><a><b><c/></b></a><tenant id="deep"/></tenants>`))
	f.Add([]byte("<tenants>" + strings.Repeat("<a/>", 256) + "</tenants>"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ts, err := ParseConfig(doc)
		runtime.ReadMemStats(&after)
		if err == nil {
			for _, tn := range ts {
				if tn.ID == "" {
					t.Fatalf("parsed a tenant without an id from %q", doc)
				}
			}
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, allocBound(len(doc)); got > limit {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(doc), got, limit)
		}
	})
}

// allocBound is what ParseConfig may allocate for an n-byte document:
// a run of empty elements, the costliest input per byte, takes about
// 53 B per byte of document.
func allocBound(n int) uint64 { return 64<<10 + 256*uint64(n) }
