package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"slices"
	"testing"

	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/shard"
)

// pipelineAdviceSHA256 pins, per app, the SHA-256 of every sealed advice
// record `karousos chaos -scenario pipeline -seed 42` leaves behind, in
// epoch order. They were recorded when the wire format became KADV3, whose
// variable logs back-reference repeated containers; the collector seals
// Advice.MarshalBinary of the advice it drains, and the bytes must not
// move.
var pipelineAdviceSHA256 = map[string][]string{
	"motd": {
		"59dcf396ecdde7083937b95454d9ad6618a965e51fcd70c928c2200e227b210c",
		"57ac0d7514da1482abc30ded1884ff4d06a18fb8e54ce0f824afc190942b3d3d",
		"d2f4a499115b6cf92028c4d8d793bd4081c4877503eb5169fa0e302919b95178",
		"46fe4b3f3ec2644d113e57c71946f1cbbcd0b4426fe5b5ca4609c59d7d5efd70",
	},
	"stacks": {
		"411ed7a28effa35b6eac9be4fce0df148018bc482331b8f09af3bf80ebb91665",
		"a55a0a0a99e105682bca55275c8817bfb565940e174c4b1ac2e7e6defdb11e72",
		"b91761950c18d47c4d087edbc29f3f89fd553053164c6664b568f5eb74f277db",
		"0e9a65692295252168b1371a14894de094777cc86ab05b7945d0d9b719caf90c",
	},
	"wiki": {
		"477a1e8ede2140d21fffd8ef3e645525fc5a7dd00f52df9544ca9d8d555c8117",
		"544777ebcbd12e5e22baf6997feba95cf6cd04350cb196eae22cdf32e6c6d6eb",
		"68ecbc088b4d865b2232dd7e8263441125711641632c66edb240e9f5437b5b35",
		"032e56cef2c309e5460bf301565a88a8a8cfe3b12d2c95bf245937c1a9a434f9",
	},
	"feeds": {
		"c77740484b44175d4709b7828260d5314f5c45351176f2d7025630c8f494f000",
		"a2bc628287c2422bcdd6d4ff33beb14d5d55a8e97ff06b69ae02961dfca0155e",
		"3a9ebeac2378454036f5fd47bcf33f5226611535345b5c3ab7ab6384961b5905",
		"66a4935ef52e3e61274eaa2f2a721b0aaf0f59ab1268edd86395adc0fa45771f",
	},
}

func TestPipelineAdviceBytesPinned(t *testing.T) {
	for _, app := range []string{"motd", "stacks", "wiki", "feeds"} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			sc, err := Builtin("pipeline", app, 42)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := Run(dir, sc); err != nil {
				t.Fatal(err)
			}
			log := shard.Dir(filepath.Join(dir, "shards"), 0)
			sealed, err := epochlog.ListSealed(log)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, m := range sealed {
				_, blob, _, err := epochlog.ReadSealed(log, m.Seq, epochlog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				got = append(got, hex.EncodeToString(sum[:]))
			}
			if want := pipelineAdviceSHA256[app]; !slices.Equal(got, want) {
				t.Errorf("sealed advice digests moved:\n got %q\nwant %q", got, want)
			}
		})
	}
}
