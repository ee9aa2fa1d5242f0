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
// epoch order. They were recorded when the wire format became the KADV4
// frame, a deflated KADV3 body whose variable logs back-reference repeated
// containers; the collector seals Advice.MarshalBinary of the advice it
// drains, and the bytes must not move.
var pipelineAdviceSHA256 = map[string][]string{
	"motd": {
		"8666dbcf652dc53d84908c7a4a8758b84675e80175ed67147d925dd107beed6d",
		"22f26008776332b66a6305f5b9e6c3ef3b1d8a4b7c968c6d0512b0c66b3fc788",
		"6e2f56f51b2b7270df77ba9306f632ab50ce895c043fe9a76d3047d63d8eac9f",
		"406e1c78074b80731fcf4970055a4aba3bb38dc1da2ac781103242b68c7844e9",
	},
	"stacks": {
		"3cff4bd397ed018673c117862258d70cb82c5f11f58905adc400daf3bdc93fc0",
		"01bee5422d8d33c3eb470c4d275588529dc19823b7157fba1fac79ce8c2e77c4",
		"875c6317debd3d9866e5cb7d8146c0207c6107cf6795340e567465e7d32c11ab",
		"3ca5e1942ff5a9d057db239efb5fafd584dc40a38b6c5430fbfb3f73c74626ad",
	},
	"wiki": {
		"74e563758e8d2ca43c84c0d05a8929243fda6899c6298772c17421e0c408330c",
		"6aeaaadc35d7508a7ae7d1956404d8872a71360e2817e3548c38a90aea0d77c7",
		"5b792597e23594441341bfaa17ec9afe08e3ceaeaa78bcee6aa0094c7dd2ccd5",
		"699e252bf0f4679f84b3cea724ef861f6aebc0cde3500a16ff67f18a0ba68533",
	},
	"feeds": {
		"2e5e17a92a612ba5bc0822ff564966a44b0bcee9a48325eb0ae55abda7696434",
		"97d1c86e4fbbfe2120704ac9b94967a877c7517d4799e39a42e7902d31826850",
		"52de71bca12f2e79e5c54b089c00147e14022d6f2ad64eca4e006603b96e3b5d",
		"ee95f796900cfa0c213a622198a2edde861b407beae8776f328f1374a07d2223",
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
