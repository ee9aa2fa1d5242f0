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
// epoch order. They were recorded when the collector still encoded the
// whole epoch with Advice.MarshalBinary at every seal; the collector now
// seals the blob the runtime assembles from the entries it encoded while
// logging, and the bytes must not move.
var pipelineAdviceSHA256 = map[string][]string{
	"motd": {
		"cd2dc64783756de135688b69b5accb85ed7fc946fdb4444344d96bf091b42783",
		"8256c01e62724f07d3644c7fb9b8e45930165f855cdbb150608bd059d6647664",
		"05fbb557618e3041fa2b882e42468e3a35ac17e1906573405f1ec1b33187fdf2",
		"9ef59c712c492dd0612fb1dbf364fd05792aa9f8e2633b04c8eb8d30d3ee3e04",
	},
	"stacks": {
		"de3a484590bac238391c752d96dfe1d614ec6bfcf9d145b6da854c7c52c5b3be",
		"71a35b1ab5276ffd45b6456695475bc0349bfd77c0b52c9909fdc149f314d462",
		"268807d7a969d6639c6f4a71c61755ae080faaea7d0bfdbdd708fb9db33996b0",
		"4d9be50c2f45c30e4ca1f3bcd9e954b1c2c50630ea9c0eb516eb61b26ffbc6de",
	},
	"wiki": {
		"62b6667f8d0d50a7ae50becb0853bbde4afee708581a7ea4978c0ed20feacea6",
		"498eacae4ddfc67d098db51ebee5a9ad0771811fc3b16bae09d627a60f246ea3",
		"512846343bf85b2ab8b6a82b828c0b09fe8ac3c7eccb23b46ce809448bbadb52",
		"0e7cc264c87b3c3970ee37b464859484951822b6d529c0e384680be8e0eeac7f",
	},
	"feeds": {
		"5f5b9b1cbca7610b35cc42849e09f77bacdaa2a998741d072bc0e6c9221d6ef7",
		"99af52891753acc106a8e805053e2f3ea99519251f6d66742439281f664af1ad",
		"be7e2bcc3c767dbb342613703af41d72fe106947e0537bb4f8a0975e79ec8969",
		"651a71acbd14417c06566f30f807c322d4d0f2a89b542f93e1ae311558bdf022",
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
