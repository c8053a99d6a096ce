package oracle

import (
	"encoding/hex"
	"slices"
	"testing"

	"soteria/internal/nvm"
)

// TestFillKnownAnswer pins the payload bytes: a chaos repro line names a
// seed, and the bytes that seed writes must not drift between builds.
func TestFillKnownAnswer(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		stream  uint64
		version int
		want    string
	}{
		{1, 0, 0, "99b4b9c4a5cebae44e502e3f5e9a060abcf4b69cd833ccbb2a39900749158b6c5808db2b7aff7fa6b19c230095ae528d7e391b3087c00baccb4eab4362e4cb3e"},
		{14, 3, 47, "b76c1b0345e0eda5dc3374cbbaec0b4ad1d6e824578bfebb6996cdf3c5f646f7c50f615d490a76180025af088f317686aaee76b35e3cff121745979124efb8d1"},
		{-5, 0, 199, "099d7a04f18c3c23c7bcb214358b376f84e3225789831d98469499b2b8bb9d91cddae7c34bd551964ab0acfb96fc8f2ab6dd55dc6037893beb7b4e8f7ac13642"},
		{42, 2, 0, "34b1cd99d5e547425855cda0bca5c51aca37bc541e392232312cb6e8901ff55dfd2cea6055137352617075950a0dc9cec88a79b26ffbac1c0cc58bd38bf9ed91"},
	} {
		var l nvm.Line
		Fill(&l, c.seed, c.stream, c.version)
		if got := hex.EncodeToString(l[:]); got != c.want {
			t.Errorf("Fill(seed %d, stream %d, version %d) = %s, want %s", c.seed, c.stream, c.version, got, c.want)
		}
	}
}

func fill(seed int64, stream uint64, version int) *nvm.Line {
	l := new(nvm.Line)
	Fill(l, seed, stream, version)
	return l
}

// TestCheckVerdicts walks every verdict Check can return.
func TestCheckVerdicts(t *testing.T) {
	const seed = 7
	acked, cold, hot := Key{Addr: 0x40}, Key{Stream: 2, Addr: 0x80}, Key{Stream: 2, Addr: 0xc0}
	b := Book{Seed: seed}
	b.Ack(acked, 3)
	b.Ack(hot, 4)
	b.Ack(acked, 5)
	for _, c := range []struct {
		name string
		k    Key
		got  *nvm.Line
		want Verdict
	}{
		{"never acknowledged", cold, fill(seed, 2, 9), Unchecked},
		{"last acknowledged", acked, fill(seed, 0, 5), OK},
		{"an older write", acked, fill(seed, 0, 3), Stale},
		{"another stream's write", acked, fill(seed, 1, 5), Stale},
		{"zero", acked, new(nvm.Line), Stale},
	} {
		if v := b.Check(c.k, c.got); v != c.want {
			t.Errorf("before the cut, %s: verdict %d, want %d", c.name, v, c.want)
		}
	}

	// Cut a write to an acknowledged line: old or new, nothing else.
	b.Cut(hot, 6)
	for _, c := range []struct {
		name string
		got  *nvm.Line
		want Verdict
	}{
		{"old", fill(seed, 2, 4), OK},
		{"new", fill(seed, 2, 6), OK},
		{"a third write", fill(seed, 2, 5), NeitherOldNorNew},
		{"zero", new(nvm.Line), NeitherOldNorNew},
	} {
		if v := b.Check(hot, c.got); v != c.want {
			t.Errorf("cut over version 4, %s: verdict %d, want %d", c.name, v, c.want)
		}
	}
	if v := b.Check(acked, fill(seed, 0, 3)); v != Stale {
		t.Errorf("a cut elsewhere exempted a stale line: verdict %d", v)
	}

	// Cut a line's first write: zero or new.
	b.Cut(cold, 0)
	for _, c := range []struct {
		name string
		got  *nvm.Line
		want Verdict
	}{
		{"zero", new(nvm.Line), OK},
		{"new", fill(seed, 2, 0), OK},
		{"another write", fill(seed, 2, 1), NeitherZeroNorNew},
	} {
		if v := b.Check(cold, c.got); v != c.want {
			t.Errorf("cold cut, %s: verdict %d, want %d", c.name, v, c.want)
		}
	}
}

// TestKeysSortedThenColdCut: the walk is by stream then address, and a
// cut line never acknowledged comes last; a cut over an acknowledged line
// is not listed twice.
func TestKeysSortedThenColdCut(t *testing.T) {
	var b Book
	for _, k := range []Key{{1, 0x40}, {0, 0x80}, {1, 0}, {0, 0x40}} {
		b.Ack(k, 0)
	}
	b.Cut(Key{0, 0x80}, 1)
	want := []Key{{0, 0x40}, {0, 0x80}, {1, 0}, {1, 0x40}}
	if got := b.Keys(); !slices.Equal(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	b.Cut(Key{0, 0}, 1)
	if got := b.Keys(); !slices.Equal(got, append(want, Key{0, 0})) {
		t.Fatalf("keys with a cold cut %v, want it appended last", got)
	}
}
