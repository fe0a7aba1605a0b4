package rescache

import (
	"fmt"
	"sync"
	"testing"
)

func TestKeyDomainSeparation(t *testing.T) {
	// (version, body) pairs that concatenate identically must not
	// collide: the separator byte keeps "v1"+"x" and "v1x"+"" apart.
	a := Key("v1", []byte("x"))
	b := Key("v1x", []byte(""))
	if a == b {
		t.Fatalf("version/body concatenation collides: %s", a)
	}
	if a != Key("v1", []byte("x")) {
		t.Fatal("key is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(a))
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if !c.Put("k", []byte("value")) {
		t.Fatal("put rejected under budget")
	}
	got, ok := c.Get("k")
	if !ok || string(got) != "value" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Bytes != 5 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

// TestHitCountsOnlyHits pins the lookup the service makes before it
// has validated a request: a miss counts nothing, a hit counts and
// refreshes recency exactly as Get does.
func TestHitCountsOnlyHits(t *testing.T) {
	c := New(20) // room for two 10-byte values
	if _, ok := c.Hit("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a miss through Hit counted: %+v", st)
	}
	c.Put("a", []byte("0123456789"))
	c.Put("b", make([]byte, 10))
	got, ok := c.Hit("a") // a becomes most recent, so c evicts b
	if !ok || string(got) != "0123456789" {
		t.Fatalf("hit = %q, %v", got, ok)
	}
	c.Put("c", make([]byte, 10))
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("Hit did not refresh recency")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want one hit and no miss", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(30) // room for three 10-byte values
	val := func() []byte { return make([]byte, 10) }
	c.Put("a", val())
	c.Put("b", val())
	c.Put("c", val())
	// Touch a so b is now the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", val()) // evicts b
	if c.Contains("b") {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Fatalf("%s evicted, want b only", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizeValueRejected(t *testing.T) {
	c := New(10)
	c.Put("small", make([]byte, 8))
	if c.Put("big", make([]byte, 11)) {
		t.Fatal("value above the whole budget was stored")
	}
	if !c.Contains("small") {
		t.Fatal("rejected put evicted existing entries")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReputRefreshesValueAndBytes(t *testing.T) {
	c := New(100)
	c.Put("k", make([]byte, 40))
	c.Put("k", make([]byte, 10))
	st := c.Stats()
	if st.Bytes != 10 || st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("stats after re-put = %+v", st)
	}
	v, _ := c.Get("k")
	if len(v) != 10 {
		t.Fatalf("value len = %d, want 10", len(v))
	}
}

func TestZeroBudgetStoresNothing(t *testing.T) {
	c := New(0)
	if c.Put("k", []byte("v")) {
		t.Fatal("zero-budget cache accepted a value")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("zero-budget cache returned a hit")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 14)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*500+i)%64)
				if v, ok := c.Get(k); ok {
					if string(v) != k {
						t.Errorf("corrupted value for %s: %q", k, v)
						return
					}
				} else {
					c.Put(k, []byte(k))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
