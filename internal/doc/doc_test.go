package doc

import (
	"sync"
	"testing"
)

// TestKeyConcurrentFirstCalls has several goroutines make the first Key
// call on one document at once, as concurrent artifact computes under one
// scenario and concurrent job snapshots of one trace do: every caller gets
// the one key (run under -race).
func TestKeyConcurrentFirstCalls(t *testing.T) {
	v := &struct {
		Name string `json:"name"`
		key  Key
	}{Name: "x"}
	want := (&Key{}).Of(v)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := v.key.Of(v); got != want {
				t.Errorf("key %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}
