"""The one-pass |·|BS against the two-pass composite |·|CS ∘ |·|BC, and
the compiled images it leads to.

:func:`repro.translate.b_to_s` is what the compiler runs; ``c_to_s(b_to_c(M))``
is the paper's definition of the composite and stays the oracle.  The
golden image digests pin the ``.gradb`` bytes the whole front end produces:
a change that moves them must bump ``FORMAT_VERSION`` and regenerate them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given

from repro.compiler.cache import compile_image
from repro.compiler.serialize import FORMAT_VERSION, serialize_image, source_fingerprint
from repro.compiler.vm import translate_term
from repro.core.errors import TypeCheckError
from repro.core.labels import label
from repro.core.terms import App, Cast, Coerce, Lam, Pair, Var, const_int
from repro.core.types import BOOL, DYN, INT
from repro.gen.surface_programs import generate_corpus
from repro.lambda_c.coercions import Identity
from repro.surface.interp import compile_source
from repro.translate import b_to_c, b_to_s, c_to_s

from .strategies import lambda_b_programs

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "programs"

CORPUS = (
    [(path.name, path.read_text()) for path in sorted(EXAMPLES.glob("*.grad"))]
    + generate_corpus(6, seed=20150613)
)


@pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
def test_one_pass_equals_two_pass_on_the_corpus(name, source):
    term, _ = compile_source(source)
    assert b_to_s(term) == c_to_s(b_to_c(term))
    assert translate_term(term) == c_to_s(b_to_c(term))


@given(lambda_b_programs())
def test_one_pass_equals_two_pass_on_random_programs(program):
    term, _ = program
    assert b_to_s(term) == c_to_s(b_to_c(term))


def test_equal_casts_share_one_coercion_and_cast_free_subterms_are_kept():
    p = label("p")
    inner = App(Lam("x", INT, Var("x")), const_int(1))
    term = Pair(Cast(inner, INT, DYN, p), Cast(const_int(2), INT, DYN, p))
    out = b_to_s(term)
    assert out == c_to_s(b_to_c(term))
    assert out.left.coercion is out.right.coercion
    assert out.left.subject is inner


def test_a_non_lambda_b_term_is_rejected_like_the_two_pass_form():
    term = App(Lam("x", INT, Var("x")), Coerce(const_int(1), Identity(INT)))
    for translate in (b_to_s, lambda t: c_to_s(b_to_c(t))):
        with pytest.raises(TypeCheckError, match="must be a λB term"):
            translate(term)
    bad_cast = Cast(const_int(1), INT, BOOL, label("p"))
    for translate in (b_to_s, lambda t: c_to_s(b_to_c(t))):
        with pytest.raises(TypeCheckError, match="incompatible base types"):
            translate(bad_cast)


#: The format version the digests below were recorded under.
GOLDEN_FORMAT_VERSION = 2

#: sha256 of the ``.gradb`` bytes of each shipped example at ``-O2``, per
#: semantics and IR.
IMAGE_SHA256 = {
    "boundary_blame.grad/coercion/register":
        "9ead28ddc47c39f8a5f6e3efcf64a8048a4e03ab3a371a53672569d1b8987e51",
    "boundary_blame.grad/coercion/stack":
        "5791bb0daebba182dd053cb1ae7c86a83fdf9ddb93bc133b9b5ec494a031cedc",
    "boundary_blame.grad/erasure/register":
        "2ad2d3eab0b866aa7310464cdb78466af2c62b2d8825344696eafa22ab0b18e4",
    "boundary_blame.grad/erasure/stack":
        "8fe60c9e44818c40355cc44125d463de236de71635fca26f3d80f8385ab623b8",
    "boundary_blame.grad/threesome/register":
        "cf76b9b0e5de894ab08fcb65142c7d2577832317c2b085a1ef8623a7ee30b37b",
    "boundary_blame.grad/threesome/stack":
        "18934367e2cbe019d41656ac977cd2fd8bf5fdf5735efb9a06f2798492b7f5bf",
    "boundary_blame.grad/transient/register":
        "9743bb97796b1c228441bfdabb5f4993f4831eed4fa7679160f058381a42b8dc",
    "boundary_blame.grad/transient/stack":
        "b8bfa00f46b92d6ed6ee93ed9712bda13c8282d5897df84e4965171c84a9c5dd",
    "square.grad/coercion/register":
        "6fa3183e4436ea87b6ac803ab0af46f7e264276679af75a7e6b68b97e2eac471",
    "square.grad/coercion/stack":
        "5eba225e29147b91d0d97ed088faa86f4e7b011ac8fdad875f22a73e5c136546",
    "square.grad/erasure/register":
        "3d24035908ddd43173407c38050425f8580ecdffe672a1673358700fcdae6aa4",
    "square.grad/erasure/stack": "4c6dda68eae26b8c65c53e92668f996deff31f57f414ef2f7ceb9be8309b1b53",
    "square.grad/threesome/register":
        "f018e5f131c0d4ccd7ad0223cad07040d0b02f56874d8f427f6773d5506880dc",
    "square.grad/threesome/stack":
        "ad9709f8a03f84a391db2886798c2a904aaa0b74c3b59a3f80b766f3c58c2a66",
    "square.grad/transient/register":
        "f17a019185659cdf5c90edea59150b66e9ffd193574e1c9667d69e82e26a97d3",
    "square.grad/transient/stack":
        "46029dce1f24bcf86b036a9c9996d2b77beb2b2c3907a1edce920c3948049bf9",
    "stats_pipeline.grad/coercion/register":
        "8a8dec56f399a9a0f7ce48edfda5cc52f5167b48857689322d5d579b5d6d196f",
    "stats_pipeline.grad/coercion/stack":
        "b066588dbeabe6b9737e019aa18e9cd8efc6bdef66253f81dde1ce8f5700c474",
    "stats_pipeline.grad/erasure/register":
        "0817d55009807e476ea9ee3e8be8565a4e8653ecc33d660500b90ee522a8060c",
    "stats_pipeline.grad/erasure/stack":
        "81d1c58531794c4f3730c41598079de327ced8fe1caf8fee7a79574bdd316bbb",
    "stats_pipeline.grad/threesome/register":
        "333d6ccb8f2976b5b5f88a597edbcee7d77b67d203698a6ae52bed5102ecaf05",
    "stats_pipeline.grad/threesome/stack":
        "54a416609ef31da0fe4b4c61acefe28c633efcbd2df7d0126446db1564db14a4",
    "stats_pipeline.grad/transient/register":
        "bcf6e7be3b9f7575ff6fbcd820158fedccab171e38bb5cbb1295de862b98ec16",
    "stats_pipeline.grad/transient/stack":
        "961eb5db69bbb92702e044ee649583dcbb82f99ed48934baed29e852f4601a7e",
    "tail_loop.grad/coercion/register":
        "f10d10bdec8afdcd8b250472f5102bb7366ee1665cafed2c184072e893e11045",
    "tail_loop.grad/coercion/stack":
        "3007a7add3f7b80b5149d1c204c7552c65ccd770a6773045ab169a3dc8406732",
    "tail_loop.grad/erasure/register":
        "fec7e5a8e22482157d93b8e112c12708360f7af0f12dd0c21b0a3910b447866f",
    "tail_loop.grad/erasure/stack":
        "752080faae844fe82c71c19306dbd50686bd9e9b0064c3f135fd84042006357f",
    "tail_loop.grad/threesome/register":
        "d67cb7e6e879385b34956bb2f0fca5d31d4d6f63227816c0a299222695e3e44b",
    "tail_loop.grad/threesome/stack":
        "ccf90ec195de7b7d50497264bafe9b79156a9c706a6b87dc6137142f61883945",
    "tail_loop.grad/transient/register":
        "c3982542b09bb5dc8b12022ae10737b3e00fede04efd5435c0f942bd66027149",
    "tail_loop.grad/transient/stack":
        "a5230a8ed37e938f07b1d17868716fbd3da45c91de04d160c8e74675ed637d1d",
    "text_metrics.grad/coercion/register":
        "82400b636d99347a8aba01e41133de6ce7a313c1f1de263976e91fb35ef9c8b5",
    "text_metrics.grad/coercion/stack":
        "4b894729be2b661270e3bb0ba6aa9f8a45c1cd40e914eff910218daa17c878d3",
    "text_metrics.grad/erasure/register":
        "f7dd928d01b3943daf0f55569dc5de3f61e6704237646a02f017a832e0358297",
    "text_metrics.grad/erasure/stack":
        "9316adfe53ae81f20fb4595a094ec75590c6ec36dcd79c6d3b99a5bfac189552",
    "text_metrics.grad/threesome/register":
        "7e19f142dfe4e5308f4f3b531518760dd2305343cbeed297dbca254b42408639",
    "text_metrics.grad/threesome/stack":
        "92014042c5995036281a34cf5d9ff4d74ba01c3c29bd86498f46e68b822edc6c",
    "text_metrics.grad/transient/register":
        "055b2b4a651a9258aa79f10f793451dfc5bc92ba0f96690da47df9ed59727770",
    "text_metrics.grad/transient/stack":
        "f7db8cd98d51edb91c7c29c4264f351dcaf82928f7a8680160c75e0c40da2e17",
    "vector_mesh.grad/coercion/register":
        "fcef54d994e6127387c6d90d5b97e9434cd599e34bbc665593f07c7e2e466e20",
    "vector_mesh.grad/coercion/stack":
        "fd6e4aff353ae19127f8443a515f606c6490144f39a2ea068fd93cd9e84131ce",
    "vector_mesh.grad/erasure/register":
        "9b181ace9d5f0ec3d972e9e882b4944c35d987335c4635bda1dc23ac3caaa51d",
    "vector_mesh.grad/erasure/stack":
        "10188eff80e726000fda7e6ba36658844ab34f28313f2412a797a1bdaa8758c7",
    "vector_mesh.grad/threesome/register":
        "8d43111c8c210625bd94f20d6b09775c155b6b8d2f3e0806aef7c01a6cc9c9a7",
    "vector_mesh.grad/threesome/stack":
        "ef41c6ed84ceded0ad78495b8425c36bf3de5e826fa5f9b98488e9bae3d65b34",
    "vector_mesh.grad/transient/register":
        "7f4d6d382efb31d3f1acab8c0a15f5c7fb768563f46768dc51767129dc93ba79",
    "vector_mesh.grad/transient/stack":
        "38238e2c123ab0b7090176363b669bcdef294696fb803a4876566904d856ec68",
}

SHIPPED = [(name, source) for name, source in CORPUS if name.endswith(".grad")]


def test_golden_digests_match_the_format_version():
    assert FORMAT_VERSION == GOLDEN_FORMAT_VERSION, (
        "FORMAT_VERSION changed: regenerate IMAGE_SHA256 with the new format")
    assert len(IMAGE_SHA256) == len(SHIPPED) * 4 * 2


@pytest.mark.parametrize("name, source", SHIPPED, ids=[name for name, _ in SHIPPED])
def test_images_are_byte_identical_to_the_golden_digests(name, source):
    term, static_type = compile_source(source)
    term_s = translate_term(term)
    source_hash = source_fingerprint(source)
    for semantics in ("coercion", "threesome", "transient", "erasure"):
        for ir in ("stack", "register"):
            image = compile_image(term_s, source_hash, static_type, semantics, 2, ir)
            data = serialize_image(image.code, source_hash, static_type, ir, image.rcode)
            key = f"{name}/{semantics}/{ir}"
            assert hashlib.sha256(data).hexdigest() == IMAGE_SHA256[key], key
