import random

import pytest

from pdf_to_text_ray.fixtures.htmlgen import make_html_page
from pdf_to_text_ray.stages.html_extract import (
    extract_html_text,
    parse_html,
    render_blocks,
    select_main_content,
)


def test_parse_html_basics():
    (p,) = parse_html('<p class="a">hi &amp; bye</p>').children
    assert (p.tag, p.attrs, p.children) == ("p", {"class": "a"}, ["hi & bye"])


def test_parse_html_comment_doctype_stray_lt():
    (p,) = parse_html("<!DOCTYPE html><!-- c --><p>a < b</p>").children
    assert p.tag == "p" and p.children == ["a ", "<", " b"]


def test_script_style_do_not_leak():
    src = "<body><script>var p = '<p>leak</p>';</script><style>p{}</style><p>keep</p></body>"
    assert extract_html_text(src) == "keep"


def test_entities_decoded():
    assert extract_html_text("<body><p>caf&#233; &amp; t&#xE9;</p></body>") == "café & té"


def test_whitespace_collapse_and_nbsp():
    assert extract_html_text("<body><p>a\n\t  b&nbsp;&nbsp;c</p></body>") == "a b c"


def test_unclosed_tags_implicit_close():
    assert extract_html_text("<body><p>one<p>two</body>") == "one\ntwo"


def test_unmatched_end_tag_ignored():
    assert extract_html_text("<body><p>x</span></p></body>") == "x"


def test_nested_blocks_and_list():
    src = "<body><div><h1>T</h1><ul><li>a</li><li>b</li></ul></div></body>"
    assert extract_html_text(src) == "T\na\nb"


def test_main_content_selection_strips_boilerplate():
    src = (
        "<html><head><title>t</title></head><body>"
        '<nav><a href="/a">aaa</a> <a href="/b">bbb</a></nav>'
        '<article><p>' + ("real content word " * 20) + "</p></article>"
        '<footer><a href="/t">terms</a></footer>'
        "</body></html>"
    )
    out = extract_html_text(src)
    assert "real content" in out
    assert "aaa" not in out and "terms" not in out


def test_br_is_line_break():
    assert extract_html_text("<body><p>a<br>b</p></body>") == "a\nb"


@pytest.mark.parametrize("malformed", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_generator_golden_roundtrip(seed, malformed):
    rng = random.Random(1000 + seed)
    html, expected = make_html_page(
        rng, lang="es" if seed % 3 else "en",
        with_sucursal=seed % 2 == 0, malformed=malformed)
    got = extract_html_text(html.decode("utf-8"))
    assert got == expected


def test_candidate_scoring_prefers_hinted_container():
    src = (
        "<body>"
        '<div class="sidebar">' + " ".join(f'<a href="/{i}">link {i}</a>' for i in range(30)) + "</div>"
        '<div class="post-content"><p>' + ("body text here " * 15) + "</p></div>"
        "</body>"
    )
    root = parse_html(src)
    best = select_main_content(root)
    assert best is not None and best.attrs.get("class") == "post-content"
    assert "body text" in "\n".join(render_blocks(best))


def test_pre_preserves_line_structure():
    src = ("<body><article><p>intro text here</p>"
           "<pre>Sucursal 1 - A\n8412345678905  2  24.95\n"
           "* Total importe en la sucursal: 49.90</pre></article></body>")
    out = extract_html_text(src)
    assert out == ("intro text here\nSucursal 1 - A\n8412345678905 2 24.95\n"
                   "* Total importe en la sucursal: 49.90")


def test_pre_with_br_and_blank_lines():
    assert extract_html_text("<body><pre>a\n\n  b<br>c</pre></body>") == "a\nb\nc"


def test_link_dense_sub_block_pruned_inside_main():
    src = (
        "<body><article><p>" + ("real content sentence here " * 10) + "</p>"
        '<div class="related">'
        + "".join(f'<a href="/{i}">related link number {i}</a> ' for i in range(8))
        + "</div>"
        "<p>closing paragraph of actual content</p></article></body>"
    )
    out = extract_html_text(src)
    assert "real content" in out and "closing paragraph" in out
    assert "related link" not in out  # link-dense block dropped
