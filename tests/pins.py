"""Every pinned output of ``ellisub analyze`` and every bound on a run, in one table.

A row runs ``ellisub analyze *args -`` on its input and pins the exit code
and either the sha256 of stdout, stderr empty, or the one stderr line,
stdout empty.  A row with a timeout runs as a child process, any other in
process through ``cli.main``.  ``test_cli.test_each_pin_holds`` checks each
row; no other file spells out an input of this one.  A change that alters a
report on purpose re-pins here alone, from the digests the failures print.
"""

from typing import NamedTuple

from ellisub.golden import CASES


class Pin(NamedTuple):
    name: str
    source: str
    args: tuple[str, ...]
    code: int = 0
    sha256: str | None = None  # of stdout, for a report (code 0)
    stderr: str | None = None  # the one stderr line, for a refusal
    max_bytes: int | None = None  # stdout and stderr together
    timeout: float | None = None  # seconds, as a child process
    max_rss_kb: int | None = None  # the child's peak RSS
    rss_percent_of: tuple[str, int] | None = None  # (row, at most this percent of its peak RSS)
    slow: bool = False  # checked only under pytest -m slow


JSON, TEXT = ("--format", "json"), ("--format", "text")
VERIFY_JSON, VERIFY_TEXT = ("--verify", *JSON), ("--verify", *TEXT)

S6 = ("a -> aabefddca\nb -> bddceaffb\nc -> cefdbeeac\nd -> dcafcbaed\ne -> efcbafcde\n"
      "f -> fbeadcbbf\n")
S7 = ("a -> afdgegcbda\nb -> bafddcegfb\nc -> cggfadfebc\nd -> debagabfcd\ne -> ecacbfadge\n"
      "f -> fdebcbgaef\ng -> gbcefedcag\n")
S8 = ("a -> abgeafgdcha\nb -> bafhggfcdeb\nc -> cdbfdbahegc\nd -> dchgcabehfd\n"
      "e -> ehebbdcgfae\nf -> fgcdhheabcf\ng -> gfdcfehbadg\nh -> heaaecdfgbh\n")
S10 = ("a -> afgjgcaefida\nb -> bcbfjdghgeab\nc -> chfbafbacfec\nd -> dbhidihidhid\n"
       "e -> eiidbbedjdce\nf -> fedhihjjaaff\ng -> gdjefecgigbg\nh -> hgaceadcbbhh\n"
       "i -> iacgcgffecji\nj -> jjeahjibhjgj\n")
# simplified at power 6, 12 and 20: rule words of 117 649, 531 441 and 1 048 576 letters
POWER_6 = "a -> ccaaacc\nb -> bacbbaa\nc -> abbccbb\n"
POWER_12 = "a -> bcd\nb -> dda\nc -> cab\nd -> abc\n"
POWER_20 = "a -> eb\nb -> de\nc -> ca\nd -> ac\ne -> bd\n"
# junction cycles of order 12: power 12 has 16 777 216 letters per rule, past the letter cap
GUARD_TRIPPER = "a -> baab\nb -> cbbc\nc -> accd\nd -> ddda\n"
NON_BIJECTIVE = "a -> ab\nb -> ab\n"
PERIODIC = "a -> aba\nb -> bab\n"

# the whole rendered report of each golden case: the golden snapshot compares
# a subset of its fields, and these pin also the degree table, the fiber
# labels, the group generators and the text layout, with and without the
# window oracle.  case -> sha256 of stdout under each of REPORT_FLAGS
REPORT_FLAGS = {"json": JSON, "text": TEXT, "verify-json": VERIFY_JSON, "verify-text": VERIFY_TEXT}
GOLDEN_REPORTS = {
    "thue_morse": ("f90493cd98db891fe935402ed3c2ddf270639d96385d30c298cfd7ef79bfb1ef",
                   "e23423419483c486a78b58c465218650c2885aa58622ff490ae0fc1fca6c1480",
                   "fd8ddc2f82da8a52f15ace6504beba3c52126bbe4202316610fe6f836126fda7",
                   "b1f8ef092cc7a14b18c0ad07b758599d471c5d352779c216ed5bf9cc611857cf"),
    "s3_seven_words": ("36d24405c8411ff2bc229c37a27654a21e2c3bdc6a31f4e588300ae32875e9a9",
                       "b80b03366cf69ad18e781d454b84cbc21b6cd60e8d6bc889cf41ff0b6d960744",
                       "51784e5a780b5b63b8f4b7262c2ec156899d9a3cde2a53aa6d8b93cd8ab937f5",
                       "717fdbe188e9e94111f7c9556bd5d9c5bc4121242077dd173b8eb865eb677de4"),
    "s3_nonnormal_little": ("8a8a080732d5ef5f90fa09c4f5abfedc98251814ac3f725e288f224b58c471bf",
                            "db49482ff90632c8d71f63bfd5d9f95cb9384a40916d42e60e43671b4a467da9",
                            "424461ae6ffccd3b9b1caae0e4c3f8d8539ec28ada3f84d32eb450b0fe76a220",
                            "edc0f4fb66c418b21f03766fe8589679742b5fe3ebe1adbe0494c395dbd08bac"),
    "s3_height_two": ("17941acdd0fab1ddd4823278e2d27bcff44636de942b2f10dcc45a00f0c67ca8",
                      "2a7de7d505013d9fd5a026ba69feef08e845026d175782a8461afa493393ab35",
                      "e76f3fadc81ccf77d89db0f9ad3079630ebc99ed99851785cd48d85701d7555c",
                      "a82910f5605ff9179a6495f2eaa6ffa2fd526053d1483ac5b5c6910a7ba4d113"),
    "cyclic_rotation": ("046c86b05a8d123aeec014ce4304fb675397bbff3d229de55d2ec14ed888d49a",
                        "1dcf03d6ed41ab9f5587ce022fe6ce28b64e055ded7fa6d258418634f80b886a",
                        "d7138ba92a42d008bdb09a92f5619dc0711db90effdbaac7d60193b0ffc199ef",
                        "88983850a4ce0698659d50502d99556f63990dd4d6b1b109270460e4f3d1b2fa"),
    "d4_height_two": ("11f41a2bacc9cca05516652443b191beb56f9130b5bd1a6999655f90e83215f5",
                      "1fbd78034a289735146ff5c0c1627373cdf0e883d14284814e58a7979bd27917",
                      "33a31f93565e616b819f8d942db64fd79e58db36613116a8e608df766ff7f8a1",
                      "6f57fd74f730ccb0ec4c1d7ef8c8ecd9782adef3547df0ea4dae9ad1aa00e9ea"),
}

# inputs with a classical height above 2, which no golden case has, named by
# their heights h and h_cl: (input, sha256 of stdout under VERIFY_JSON, under VERIFY_TEXT)
GRADED_REPORTS = {
    "h3-hcl3": ("a -> afda\nb -> bceb\nc -> cdac\nd -> dbfe\ne -> eacd\nf -> febf\n",
                "b39b42d7efcc7bcbf2a1e4318d156496dec02f94e5bc5e0d6488d4957502711b",
                "b5474dd66bfad54f5f0c24977292530bbb28e9ea1b8556b431384b167181b226"),
    "h6-hcl3": ("a -> afbefbe\nb -> bedbefb\nc -> cafcadc\nd -> dcadbaf\ne -> edcadca\n"
                "f -> fbefced\n",
                "03a25de83cd02c779222f3792d90b361f756f779043f6843cf1d541533fb7d0a",
                "96d795fadb1af81958a868fb5c7474f7277a825b4698d99cc55fa8f77c63018d"),
    "h4-hcl4": ("a -> adgfa\nb -> bfhdg\nc -> cgeac\nd -> dbfhd\ne -> eacge\nf -> fhdbf\n"
                "g -> geacb\nh -> hcbeh\n",
                "bd559d22b2eef4716664a3c13c1a2e8eb9ad252f064ca1bf245120c93b9332f4",
                "c64ab5dbde5b283d7f6709848abc9a413db2b73dd68abb8284f17d2d97064210"),
}

PINS = [Pin(f"{case}-{flags}", CASES[case], REPORT_FLAGS[flags], sha256=digest)
        for case, digests in GOLDEN_REPORTS.items()
        for flags, digest in zip(REPORT_FLAGS, digests)]
PINS += [Pin(f"{name}-{flags}", source, REPORT_FLAGS[flags], sha256=digest)
         for name, (source, *digests) in GRADED_REPORTS.items()
         for flags, digest in zip(("verify-json", "verify-text"), digests)]

# each refusal, in either format and with or without --verify, except that
# render_json alone meets the letter cap: GUARD_TRIPPER's text report is none
PINS += [
    Pin("non-bijective", NON_BIJECTIVE, (), 1, stderr='{"error": {"kind": "validation", '
        '"message": "substitution is not bijective: column(s) [0, 1] are not permutations"}}'),
    Pin("non-primitive", "a -> ab\nb -> ba\nc -> cc\n", (), 1, stderr='{"error": {"kind": '
        '"validation", "message": "substitution is not primitive"}}'),
    Pin("periodic", PERIODIC, (), 1, stderr='{"error": {"kind": "validation", "message": '
        '"substitution is periodic: complexity p(2) <= 2", "verdict": {"kind": "periodic", '
        '"period_evidence": 2}}}'),
    Pin("guard", GUARD_TRIPPER, JSON, 3, stderr='{"error": {"kind": "resource-limit", "message": '
        '"power 12 would have rule words of 16777216 letters (cap 10000000)", "stage": '
        '"render_json"}}'),
    # junction cycles of order 105 on eight letters: every stage would take O(n) steps
    Pin("exponent", "a -> fac\nb -> hba\nc -> edh\nd -> ccd\ne -> dgg\nf -> ghb\ng -> bff\n"
        "h -> aee\n", (), 3, stderr='{"error": {"kind": "resource-limit", "message": '
        '"simplified power 105 exceeds the exponent cap 100", "stage": "check_input"}}'),
    Pin("g0-out-of-range", CASES["thue_morse"], ("--verify", "--g0", "2"), 1, stderr='{"error": '
        '{"kind": "validation", "message": "g0 index 2 out of range; the R-set has 2 elements"}}'),
]

PINS += [
    # a plain analysis builds the matrix and no fiber map, so its cost grows
    # with |G|: S7 has |G| = 5040 and |S| = 80 640 fiber maps
    Pin("s7-json", S7, JSON, sha256="f53ae3e89ef94059f828c92bed4a380de68e1b466130db138702b7b1dc222fdf",
        timeout=30),
    # the text report counts degrees per element of G; it builds no table
    # row, and its size does not grow with |S|
    Pin("s7-text", S7, TEXT, sha256="f6634c278f3d6a8b69f3e58b4b9aefbbe54e78fbfc2602f10e2235fdc1e7001b",
        max_bytes=4096, timeout=30),
    # S8 has |G| = 40 320: one walk from the identity lists G with each
    # element's level, and the little group and normal completion, both G,
    # stop at |G| elements; the report is 73 MB
    Pin("s8-json", S8, JSON, sha256="ac98b023a42d5f5e92586d72b2ece6c7ca0c93ac317103d44b05811e5b3c398d",
        timeout=30, slow=True),
    # the window oracle's 36 distinct column-pair tables of tau come from the
    # input's columns by n - 1 steps of a recursion, and the report prints no
    # per-shift field, so its size does not grow with L
    Pin("power6-verify-json", POWER_6, VERIFY_JSON,
        sha256="bd36bb334ad1eae39543ad6c660db3b91dfd83cecc4a79b51fe1625b3f40c2a2",
        max_bytes=400_000, timeout=40),
    # the text report prints the oracle's verdict in one line, whatever L is,
    # and writes neither the degree table nor the analysed rules
    Pin("power6-verify-text", POWER_6, VERIFY_TEXT,
        sha256="4750e0db4168c1724bed26fde37e735dad7087530468a7b4e8190850ee27f492",
        max_bytes=4096, timeout=40),
    # the R-set comes from the input's columns by n - 1 steps of R(theta^m) =
    # R(theta) u c_0 R(theta^(m-1)) c_(l-1)^-1, and h_cl is the period of the
    # graph of allowed two-letter words: neither reads a rule word of L letters
    Pin("power12-json", POWER_12, JSON,
        sha256="e978063e5df7ff4bc413b39f062f59775fdd088951e023d4a185eb9890e0a86d", timeout=30),
    # the oracle's 1602 distinct tables come from the input's two columns; no
    # stage writes a word of tau, and render_json is its one writer
    Pin("power20-verify-json", POWER_20, VERIFY_JSON,
        sha256="b90518ae02db491161330d243d1e3a97fa2909ae6aff06559d3603d9215ba130",
        timeout=10, max_rss_kb=150_000, slow=True),
    # the text report prints l and l^n but no rule of the power, and the
    # pipeline holds theta and n: writing tau took the peak RSS to about 90 MB
    Pin("power20-text", POWER_20, TEXT,
        sha256="90b2e566960ecbfcf002ae3f401ce3a70d9d6047444994592381773ab3d8ae1d",
        timeout=10, max_rss_kb=30_000, slow=True),
    # S10 has |G| = 3 628 800: the walk over G checks perms.CLOSURE_CAP at each
    # new element, so it exits 3 at the 1 000 001st, holding no more than that
    Pin("s10-json", S10, JSON, 3, stderr='{"error": {"kind": "resource-limit", "message": '
        '"group closure exceeded cap of 1000000 elements", "stage": "structure_group"}}',
        timeout=10, max_rss_kb=200_000, slow=True),
    # |I| = 7, |G| = 720 (S_6), |S| = 10 080: a plain report rests on the
    # matrix presentation's own checks, with no capped isomorphism search
    Pin("s6-json", S6, JSON, sha256="3358d3561e2e40f0a94f7f9a1d0e25bfabd224f3dddff5982a18a55aad9c86c0"),
    # --verify proves the fiber action from 2|I| letter identities, builds
    # none of its |S| maps, names each oracle map by decoding it and decides
    # generation by the order of one loop group; S7 has |S| = 80 640
    Pin("s6-verify-json", S6, VERIFY_JSON,
        sha256="3bb35eda9c37cfb18fac591894d3143321df6a72a3c7748ca1ec5c3d7de5e023", timeout=20),
    Pin("s7-verify-json", S7, VERIFY_JSON,
        sha256="6cadbaeb60e327243540e1a533abdf6f49470f0889771d867c905347f208bcf5", timeout=20),
    # |S| = 645 120, and the peak RSS of --verify is at most 1.10 times that of a plain run
    Pin("s8-verify-json", S8, VERIFY_JSON,
        sha256="c37811848a256fe15e724a4d2ea2fa09f0a581508258f12814b559b3c374caed",
        timeout=10, rss_percent_of=("s8-json", 110), slow=True),
]
ROWS = {pin.name: pin for pin in PINS}

# a pipeline fiber with two pairs swapped leaves the oracle's maps without names: exit 2,
# each listed once in a few kB (test_cli.test_a_swapped_fiber_lists_each_unnamed_map_once)
SWAPPED_FIBER = Pin("s8-verify-json-swapped-fiber", S8, VERIFY_JSON, 2, max_bytes=65_535,
                    timeout=15, slow=True)
