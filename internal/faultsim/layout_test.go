package faultsim

import (
	"fmt"
	"testing"

	"soteria/internal/config"
	"soteria/internal/core"
)

// TestSchemeLayoutPinned pins the address map every reliability table is
// computed over: the Table 4 DIMM under non-secure, baseline, SRC and SAC
// (8192 shadow slots), and the SRC layout at each scheme-zoo strategy's
// shadow size (soteria one line per slot, anubis-shadow two, the Triad
// variants none). A change here moves every Fig 11/12, §6.1/§6.2 and
// scheme-zoo number. No layout may reach past the DIMM.
func TestSchemeLayoutPinned(t *testing.T) {
	d := config.Table4().DIMM
	for _, tc := range []struct {
		name   string
		policy core.ClonePolicy // unused for non-secure
		slots  uint64
		data   uint64
		base   uint64
		shadow uint64
		clones [][]uint64 // per level
		total  uint64
	}{
		{"non-secure", core.ClonePolicy{}, 0, 0x400000000, 0, 0, nil, 0x400000000},
		{"baseline", core.Baseline(), 8192, 0x37ff00000, 0, 0x3ffef8000,
			[][]uint64{nil, nil, nil, nil, nil, nil, nil, nil}, 0x3fff90000},
		{"SRC", core.SRC(), 8192, 0x372200000, 0xfc30000, 0x3ffea0000,
			[][]uint64{{0x0}, {0xdc88000}, {0xf820000}, {0xfb98000}, {0xfc08000}, {0xfc18000}, {0xfc20000}, {0xfc28000}}, 0x3fff38000},
		{"SAC", core.SAC(), 8192, 0x371f00000, 0x10060000, 0x3fff60000,
			[][]uint64{{0x0}, {0xdc80000}, {0xf810000, 0xfb88000}, {0xff00000, 0xff70000}, {0xffe0000, 0xfff0000, 0x10000000},
				{0x10010000, 0x10018000, 0x10020000}, {0x10028000, 0x10030000, 0x10038000}, {0x10040000, 0x10048000, 0x10050000, 0x10058000}}, 0x3ffff8000},
		{"zoo/soteria", core.SRC(), 8192, 0x372200000, 0xfc30000, 0x3ffea0000,
			[][]uint64{{0x0}, {0xdc88000}, {0xf820000}, {0xfb98000}, {0xfc08000}, {0xfc18000}, {0xfc20000}, {0xfc28000}}, 0x3fff38000},
		{"zoo/anubis-shadow", core.SRC(), 16384, 0x372200000, 0xfc30000, 0x3ffea0000,
			[][]uint64{{0x0}, {0xdc88000}, {0xf820000}, {0xfb98000}, {0xfc08000}, {0xfc18000}, {0xfc20000}, {0xfc28000}}, 0x3fffc8000},
		{"zoo/triad-nvm", core.SRC(), 0, 0x372300000, 0xfc38000, 0,
			[][]uint64{{0x0}, {0xdc90000}, {0xf828000}, {0xfba0000}, {0xfc10000}, {0xfc20000}, {0xfc28000}, {0xfc30000}}, 0x3fffd0000},
		{"zoo/triad-nvm-2", core.SRC(), 0, 0x372300000, 0xfc38000, 0,
			[][]uint64{{0x0}, {0xdc90000}, {0xf828000}, {0xfba0000}, {0xfc10000}, {0xfc20000}, {0xfc28000}, {0xfc30000}}, 0x3fffd0000},
	} {
		var s *Scheme
		if tc.name == "non-secure" {
			s = NonSecureScheme(d)
		} else {
			var err error
			if s, err = BuildScheme(d, tc.policy, tc.slots); err != nil {
				t.Fatal(err)
			}
		}
		l := s.Layout
		if l.Total > d.CapacityBytes() {
			t.Errorf("%s: layout total %#x lies past the %#x-byte DIMM", tc.name, l.Total, d.CapacityBytes())
		}
		var clones [][]uint64
		for _, li := range l.Levels {
			clones = append(clones, li.CloneBases)
		}
		if l.DataBytes != tc.data || l.DataBase != tc.base || l.ShadowBase != tc.shadow ||
			fmt.Sprint(clones) != fmt.Sprint(tc.clones) || l.Total != tc.total {
			t.Errorf("%s: data %#x base %#x shadow %#x clone bases %#x total %#x;\nwant data %#x base %#x shadow %#x clone bases %#x total %#x",
				tc.name, l.DataBytes, l.DataBase, l.ShadowBase, clones, l.Total,
				tc.data, tc.base, tc.shadow, tc.clones, tc.total)
		}
	}
}
