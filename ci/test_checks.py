"""Every CI check past the tier-1 tests: exact bytes, exit codes, counts and
time bounds of CLI runs and of library paths that the CLI never takes.

Run with `python -m pytest ci -q`.  Each test runs in a child process,
killed at its time bound; the input names are the files of the `inputs`
fixture.
"""

from pathlib import Path

import pytest

VERIFY_16 = "--budget 16 --instantiations 64"

CLI = {  # id: (argv, exit code, pinned stdout, timeout in seconds)
    # the oracle's exact residuals: the standard gl_2 set passes, criterion
    # 2's upper control fails with these bytes
    "gl2-standard": ("verify-relations --relations gl2_standard", 0, {}, 60),
    "upper-control": ("verify-relations --relations upper_control", 3, {"out": '{"budget":2,"command":"verify-relations","families":{"dd":"pass","ef":"fail"},"instantiations":3,"members":45,"passes":false,"radius":2,"seed":1,"v":1,"violations":[{"detail":[[[],"112782616056/991026973"]],"family":"ef","indices":{"i":2,"j":2,"r":1,"s":1},"shift":[]}]}'}, 60),
    # interval membership is arithmetic: a weight gap of 10^12 is decided at once
    "gap": ("tensor-check --weights gap --mode integral --depth 1", 0, {}, 30),
    # the conditions read each weight shifted by minus its point
    "moved-point": ("tensor-check --weights moved_point --mode integral", 3, {"out": '{"command":"tensor-check","conditions":{"generic":false,"integral":false},"depth":3,"mode":"integral","only_top_line":false,"singular_dimensions":{"0":1,"1":1,"2":0,"3":0},"v":1}'}, 60),
    # exact integers only: a denominator 2^61 - 1, an entry near 2^60 and
    # two entries 2^61 - 1 apart take the path of any other entry
    "p-denominator": ("tensor-check --weights p_denominator --depth 3", 0, {"out": '{"command":"tensor-check","conditions":{"generic":true},"depth":3,"mode":"generic","only_top_line":true,"singular_dimensions":{"0":1,"1":0,"2":0,"3":0},"v":1}'}, 60),
    "large-entry": ("tensor-check --weights large_entry --depth 3", 0, {"out": '{"command":"tensor-check","conditions":{"generic":true},"depth":3,"mode":"generic","only_top_line":true,"singular_dimensions":{"0":1,"1":0,"2":0,"3":0},"v":1}'}, 60),
    "p-apart": ("tensor-check --weights p_apart --depth 2", 0, {"out": '{"command":"tensor-check","conditions":{"generic":true},"depth":2,"mode":"generic","only_top_line":true,"singular_dimensions":{"0,0":1,"0,1":0,"0,2":0,"1,0":0,"1,1":0,"2,0":0},"v":1}'}, 60),
    # the generic gl_3 pair grows its factor windows to 70 and 94 members at
    # depth 7; at depth 16 (153 weight spaces) the adjacent raising series
    # keep it inside the bound
    "gl3-generic-7": ("tensor-check --weights gl3_generic --depth 7", 0, {"out": '{"command":"tensor-check","conditions":{"generic":true},"depth":7,"mode":"generic","only_top_line":true,"singular_dimensions":{"0,0":1,"0,1":0,"0,2":0,"0,3":0,"0,4":0,"0,5":0,"0,6":0,"0,7":0,"1,0":0,"1,1":0,"1,2":0,"1,3":0,"1,4":0,"1,5":0,"1,6":0,"2,0":0,"2,1":0,"2,2":0,"2,3":0,"2,4":0,"2,5":0,"3,0":0,"3,1":0,"3,2":0,"3,3":0,"3,4":0,"4,0":0,"4,1":0,"4,2":0,"4,3":0,"5,0":0,"5,1":0,"5,2":0,"6,0":0,"6,1":0,"7,0":0},"v":1}'}, 60),
    "gl3-generic-16": ("tensor-check --weights gl3_generic --depth 16", 0, {"sha256": "a38b35674e52c6ee158e242176dc36e990139b4555b9ec0d522d7f314291a113"}, 20),
    # a half-integral pair that meets the integral condition has a singular
    # vector at (1,1)
    "half-integral": ("tensor-check --weights half_integral --mode integral --depth 2", 3, {"sha256": "040b3cfadb584cce1129ec9b61e10b1e9d409fb440f219206cf5ccca24b34b8e"}, 60),
    # fractional points give the series a scale above 1, the lcm of the
    # points' denominators, and each pole is the scale times a point
    "gl3-fractional": ("tensor-check --weights gl3_fractional --depth 4", 0, {"sha256": "5fce73a190e3ea23955d90ebfcd8bfcc2d713ae7d3d52042677a501cbbb4499f"}, 20),
    "gl2-fractional": ("tensor-check --weights gl2_fractional --depth 3", 0, {"sha256": "f48d3d9f944eac3b28c71104aa7806af7cdc510c849be0f349ab564861b80925"}, 20),
    # 16 generic gl_2 factors: each factor's image is built once per index
    "sixteen-generic": ("tensor-check --weights sixteen_generic --depth 1", 0, {"sha256": "465a0ec8f88403a97b3a29757ec76c25fe89f96e2767569865b2ac1e738489d3"}, 10),
    # at depth 2 one weight space holds 136 keys, and the elimination's
    # integers grow with every pivot
    "sixteen-generic-2": ("tensor-check --weights sixteen_generic --depth 2", 0, {"sha256": "ce0d920f898d0cfbe8f218fb83d523cbbd6a06e49d7351dd2c43006bbff59229"}, 60),
    # the same factors at points 1/2, 1/3, ..., 1/53, at depth 2: integer
    # growth under the largest scale
    "sixteen-fractional": ("tensor-check --weights sixteen_fractional --depth 2", 0, {"sha256": "ce0d920f898d0cfbe8f218fb83d523cbbd6a06e49d7351dd2c43006bbff59229"}, 60),
    # a depth whose tensor basis is past 100,000 keys is refused before any probe
    "four-generic-37": ("tensor-check --weights four_generic --depth 37", 4, {"out": '{"error":"tensor basis has more than 100000 members","v":1}'}, 10),
    # admissibility row by row: a gl_6 set whose triples have 172,800 images
    # is rejected at once, a gl_5 set passes under a 5-cycle of its top row,
    # and the reversed gl_10 interlacing set is refused before any image
    "gl6-unbridged": ("check-admissible --relations gl6_unbridged", 3, {"out": '{"admissible":false,"certificate":{"reason":"unbridged","witness":[[1,5,3],[1,5,5]]},"command":"check-admissible","v":1}'}, 10),
    "gl5-cycle": ("check-admissible --relations gl5_cycle", 0, {"out": '{"admissible":true,"certificate":{"reason":"admissible","relabeling":{"5":[[[1,1],[1,2]],[[1,2],[1,3]],[[1,3],[1,4]],[[1,4],[1,5]],[[1,5],[1,1]]]},"witnesses":[]},"command":"check-admissible","v":1}'}, 10),
    "gl10-reversed": ("check-admissible --relations gl10_reversed", 4, {"out": '{"error":"row 10 has 3628800 relabelings of its related triples, more than 362880","v":1}'}, 10),
    # the oracle at both caps: hit sets empty at the default seed, a failing
    # set at its first instantiation, the spread seed passing
    "gl3-standard-16": (f"verify-relations --relations gl3_standard {VERIFY_16}", 0, {}, 30),
    "lower-control-16": (f"verify-relations --relations lower_control {VERIFY_16}", 3, {"sha256": "24d58b766a2618df509b40828b0cb6444462d0b6caf2423363f63fbd2fcc4aa0"}, 30),
    "gl3-spread-16": (f"verify-relations --relations gl3_standard --tableau gl3_spread_seed {VERIFY_16}", 0, {"sha256": "3e7a35b5cfdcb2db7799b38fed391dd8ae5606d08c2605c88d8494a03684a88a"}, 30),
    # budget 1, where serre-f still takes r, s in (1, 2) and serre-e r = s = 1
    "upper-control-1": ("verify-relations --relations upper_control --budget 1", 3, {"sha256": "46b8c2ec709e01dd823d6fa7094ce6d01184f650d88755bd8fcd98aa4193c68f"}, 60),
    "gl3-spread-1": ("verify-relations --relations gl3_standard --tableau gl3_spread_seed --budget 1", 0, {"sha256": "9f0427d7e20f5ba768079f524708422757bc75d1c305a99d4bb0038e17cc0899"}, 60),
    # a relation case is evaluated only where a walk meets a wall: the empty
    # (2,2,2) set (15,625 members) and a one-edge set (9,375)
    "p222-empty": ("verify-relations --relations p222_empty", 0, {"sha256": "94894c9dbe27a5584e7fc0549054d220d84cab426d8db051dada45e0b0a91e42"}, 20),
    "p222-one-edge": ("verify-relations --relations p222_one_edge", 0, {"sha256": "e6e25ed3a5b2d62016f9147aeba679775edddc9b0dde5b57284f1f57fb1c0f9e"}, 20),
    # only walks that end on a member count: the passing gl_4 set evaluates
    # no case, the critical top-row set fails at its first member
    "gl4-one-edge": ("verify-relations --relations gl4_one_edge", 0, {"sha256": "2973eaea315cd031391d680a6d332e81fcb02002206fc90408ba9e49a4303b92"}, 20),
    # the same set at radius 3 (67,228 members), where the hit sets are
    # decided over the support table of a large window
    "gl4-one-edge-3": ("verify-relations --relations gl4_one_edge --radius 3", 0, {"sha256": "b7d8678fec627bec28fc590793666d2e63923994c96f970db3229414a4e68022"}, 30),
    "gl4-top-edge": ("verify-relations --relations gl4_top_edge --tableau gl4_top_seed", 3, {"sha256": "ec1098c34015e77106d084b112cfa035042befd7d08ce68566ac9d05dc7b07be"}, 20),
    # maximal sets with links across columns, from integer-linked tableaux
    # and weights
    "gl3-linked": ("irreducible --relations gl3_standard --tableau gl3_linked", 0, {"sha256": "af353c006ca0a7c1189937cebc7ff76078bc107985a20560dd0c40b92927f51b"}, 60),
    "gl3-other": ("irreducible --relations gl3_standard --tableau gl3_other", 3, {"sha256": "8732277166a5e2dd79bc808c8f66b2497e5d681d842bb19c2b6bc120b37d8043"}, 60),
    "gl4-linked": ("irreducible --relations gl4_standard --tableau gl4_linked", 0, {"sha256": "af353c006ca0a7c1189937cebc7ff76078bc107985a20560dd0c40b92927f51b"}, 60),
    "gl3-linked-pair": ("tensor-check --weights gl3_linked_pair --mode integral --depth 2", 3, {"sha256": "e393eb08b199c3314f2f87deb8cd874ad6678111c592fcf3fec65d408efee08a"}, 60),
    "gl4-linked-pair": ("tensor-check --weights gl4_linked_pair --mode integral --depth 2", 0, {"sha256": "5281a3a020dce75d5bd0b30f926cc4957cb79827a8d86126b72d86f1ebc7c65b"}, 60),
    # windows listed from coordinates: a key's triple order is not the free
    # triples' order on (1,2,2) and (2,2,2), the empty gl_4 set keeps all
    # 15,625 box points, the standard gl_4 set at its spread seed is whole
    # (4,096 members) at radius 9, and nothing is sized by a radius of 10^9
    "p122-window": ("enumerate-basis --relations p122_standard --tableau p122_seed --radius 2", 0, {"sha256": "3d5a742f6053a82a592c5391d10c77c12229358fd8b1ae4f838833d34ff30a60"}, 10),
    "p222-window": ("enumerate-basis --relations p222_standard --tableau p222_seed --radius 2", 0, {"sha256": "e5b071b8dd10789e0298ee093cef25741df01d95662b9fa884a8332f8c80a4f0"}, 10),
    "gl4-spread-window": ("enumerate-basis --relations gl4_standard --tableau gl4_spread_seed --radius 9", 0, {"sha256": "bfe075224353fb61d860216937c37bc2714e1e617c55ce2ad098c155c159b114"}, 10),
    "gl4-empty-window": ("enumerate-basis --relations gl4_empty --radius 2", 0, {"sha256": "53582efa13b65add52f0b79f78e6696cc831def6d0f27d9c0ed02f0f2a29a164"}, 10),
    "gl2-huge-radius": ("enumerate-basis --relations gl2_standard --tableau gl2_seed --radius 1000000000", 0, {"sha256": "a2789d8bef8fbe9964999cabe3726458731d8825b2fda3b80b57d79f2972457f"}, 5),
}


@pytest.mark.parametrize("argv, exit, pin, timeout", CLI.values(), ids=CLI)
def test_cli(check, inputs, argv, exit, pin, timeout):
    args = [inputs.get(a, a) for a in argv.split()]
    check(["-m", "wpimod.cli", *args], exit=exit, timeout=timeout, **pin)


LIBRARY = {  # `programs.py` function: (timeout in seconds, sha256 of its stdout)
    "gl3_box": (60, "04b280bd95dbf3297bda5f52bce7f0cf6fef36ead0c92151b099ca1654eafe1e"),
    "library_paths": (30, "a161156af558bd774b779d86fd4a3788ee38bb267a8ba8c38607729d7c3b53a2"),
    # the probe on an 800-member window, every 20th start
    "gl4_probe": (30, "d8494e3388ebb76afe86798987378d814a6f3ba0b726a6cf02885715583fb997"),
    # every t_ij^(r), r <= 2, and one quantum minor at depth 3, where the
    # pool's products stop at depth 2
    "t_matrices": (30, "7cf346a8fedf6c89b5ffa3e676c9ffd1c7bd7a9b52d42307450652e7729bfd14"),
    "sparse_sums": (30, "bc195da705df422a44f31880457da25845d77103e3214f4359513f328136ddd1"),
    "tables_16": (60, "dc1dd27b6991c714a824f7d982aebbf5b556a56da63128e3080f24de86c60cad"),
    # these assert their counts themselves
    "wall_orders": (90, None),
    "relabeling": (300, None),
    "good_weights": (60, None),
}


@pytest.mark.parametrize("name", LIBRARY)
def test_library(check, name):
    timeout, sha256 = LIBRARY[name]
    check([str(Path(__file__).with_name("programs.py")), name], sha256=sha256, timeout=timeout)
