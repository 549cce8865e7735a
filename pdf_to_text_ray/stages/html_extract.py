"""From-scratch HTML main-content extractor (boilerplate stripper).

The reference has no HTML path (it is PDF-only, src/main.ts:147-154); the
north rule adds HTML boilerplate stripping as the sibling extraction path
for Common-Crawl-style inputs. This module implements it from scratch —
no html.parser, no bs4/lxml — as:

1. one pass over the source that tokenizes and builds the tree at once
   (``parse_html``): data / tag / comment / doctype / rawtext states,
   entity decoding via the public stdlib ``html.unescape`` entity
   table, and a forgiving tree (void elements, implicit closes,
   unmatched end tags ignored, stray ``<`` treated as text), with each
   text run and element appended straight to the open element,
2. a readability-style candidate scorer: for each candidate container,
   ``score = text_len * (1 - link_density) * boost`` where link_density
   is the fraction of text under ``<a>``, boost comes from the tag and
   class/id hints, and the best-scoring container's block texts are
   emitted.

Pinned output spec (FIXTURES.md §2, frozen): main-content block texts in
document order; block-level elements separated by "\\n"; inline
whitespace (including NBSP) collapsed to single spaces; entities
decoded; each block trimmed; empty blocks dropped.

Stateless per-row pure function → runs inside ``map_batches`` tasks; the
compiled regexes and tag tables are module-level constants (built once
per worker process at import).
"""

from __future__ import annotations

import html as _htmlmod
import re

# ── tokenizer and tree builder (one pass) ─────────────────────────────

# an end tag (group 1), or a start tag's name (2) and attributes (3) up
# to the '>' outside quoted values (an unterminated quote stops short)
_TAG_RE = re.compile(r"""<(?:/([a-zA-Z][a-zA-Z0-9:-]*)\s*>"""
                     r"""|([a-zA-Z][a-zA-Z0-9:-]*)((?:[^>"']+|"[^"]*"|'[^']*')*))""")
# name, then a double-quoted, single-quoted or bare value (at most one
# value group is non-empty; an absent value reads as "")
_ATTR_RE = re.compile(
    r"""([^\s=/>]+)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*)))?"""
)
_WS_COLLAPSE_RE = re.compile(r"[ \t\r\n\f\v\xa0]+")
# str.split() whitespace that _WS_COLLAPSE_RE lacks; if absent, split/join matches it
_SPLIT_ONLY_WS_RE = re.compile(
    "[\x1c-\x1f\x85\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_HWS_COLLAPSE_RE = re.compile(r"[ \t\f\v\xa0]+")  # horizontal only (<pre>)

RAWTEXT_TAGS = {"script", "style", "textarea", "title", "xmp", "noscript", "template"}
_RAWTEXT_CLOSE = {t: re.compile(rf"</{t}\s*>", re.I) for t in RAWTEXT_TAGS}
VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}
# tags whose start implicitly closes a same-name (or listed) open element
_IMPLICIT_CLOSE = {
    "p": {"p"},
    "li": {"li"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "option": {"option"},
    "h1": {"p"}, "h2": {"p"}, "h3": {"p"}, "h4": {"p"}, "h5": {"p"}, "h6": {"p"},
    "ul": {"p"}, "ol": {"p"}, "table": {"p"}, "pre": {"p"}, "blockquote": {"p"},
    "div": {"p"},
}

BLOCK_TAGS = {
    "address", "article", "aside", "blockquote", "body", "caption", "dd",
    "div", "dl", "dt", "fieldset", "figcaption", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "html", "li", "main",
    "nav", "ol", "p", "pre", "section", "table", "tbody", "td", "tfoot",
    "th", "thead", "tr", "ul", "br",
}
# subtrees never emitted as content
PRUNE_TAGS = {"script", "style", "noscript", "template", "head", "title",
              "nav", "footer", "aside", "form", "iframe", "svg", "select",
              "button", "textarea", "xmp"}  # textarea/xmp are rawtext:
# their content bypasses entity decoding, so leaking them would emit
# raw "&amp;" into blocks (they are form-widget/obsolete content anyway)

CANDIDATE_TAGS = {"article", "main", "section", "div", "td", "body"}
_TAG_BOOST = {"article": 2.0, "main": 2.0, "section": 1.2, "div": 1.0,
              "td": 0.8, "body": 0.5}
_POSITIVE_HINT = re.compile(
    r"article|body|content|entry|main|page|post|text|blog|story", re.I)
_NEGATIVE_HINT = re.compile(
    r"banner|combx|comment|community|disqus|extra|foot|header|menu|nav|"
    r"promo|related|rss|share|shoutbox|sidebar|sponsor|ad-|advert", re.I)


class Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str], children: list | None = None):
        self.tag = tag
        self.attrs = attrs
        self.children = [] if children is None else children  # Element | str (text)


def _parse_attrs(s: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for name, dq, sq, bare in _ATTR_RE.findall(s):
        val = dq or sq or bare
        if "&" in val:
            val = _htmlmod.unescape(val)
        attrs.setdefault(name.lower(), val)
    return attrs


def parse_html(src: str) -> Element:
    """Scan ``src`` once and build a forgiving element tree, appending
    each text run and element straight to the open element. Forgiving:
    a stray '<' is text, unterminated constructs consume to EOF.
    Returns a synthetic root."""
    root = Element("#root", {})
    stack = [root]
    open_tags: list[str] = ["#root"]
    children = root.children  # the open element's children
    n = len(src)
    pos = 0
    while pos < n:
        lt = src.find("<", pos)
        if lt < 0:
            lt = n
        if lt > pos:
            txt = src[pos:lt]
            if "&" in txt:  # unescape only when an entity can exist
                txt = _htmlmod.unescape(txt)
            if txt:
                children.append(txt)
            if lt == n:
                break
        m = _TAG_RE.match(src, lt)
        if m is None:
            if src.startswith("<!--", lt):
                end = src.find("-->", lt + 4)
                pos = n if end < 0 else end + 3
                continue
            if src[lt + 1 : lt + 2] not in ("/", "!", "?"):  # stray '<'
                children.append("<")
                pos = lt + 1
                continue
            # doctype / CDATA / PI / malformed end tag
            end = src.find(">", lt + 2)
            pos = n if end < 0 else end + 1
            continue
        pos = m.end()
        tag = m.group(1)
        if tag is not None:  # end tag
            tag = tag.lower()
            if tag in open_tags:  # unmatched end tags are ignored
                while open_tags.pop() != tag:
                    stack.pop()
                stack.pop()
                children = stack[-1].children
            continue
        tag = m.group(2).lower()
        attr_src = m.group(3)
        pos += 1
        if pos > n or src[pos - 1] != ">":  # unterminated: runs to EOF
            attr_src = src[m.start(3):]
            pos = n
        closes = _IMPLICIT_CLOSE.get(tag)
        if closes and open_tags[-1] in closes:
            stack.pop()
            open_tags.pop()
            children = stack[-1].children
        el = Element(tag, _parse_attrs(attr_src) if attr_src else {})
        children.append(el)
        # HTML5: the trailing "/" is IGNORED on non-void elements
        # (browsers treat <a .../> as an open <a>); honoring it emptied
        # anchors and warped block structure on real crawl markup
        if tag in VOID_TAGS:
            continue
        if (tag in RAWTEXT_TAGS and pos < n
                and not attr_src.rstrip().endswith("/")):
            # rawtext: the body up to the matching close tag is one text
            # child of the (pruned) element, which then closes
            m2 = _RAWTEXT_CLOSE[tag].search(src, pos)
            el.children.append(src[pos : m2.start() if m2 else n])
            pos = m2.end() if m2 else n
            continue
        stack.append(el)
        open_tags.append(tag)
        children = el.children
    return root


# ── block rendering & scoring ─────────────────────────────────────────

def _collapse(s: str) -> str:
    if _SPLIT_ONLY_WS_RE.search(s) is None:
        return " ".join(s.split())
    return _WS_COLLAPSE_RE.sub(" ", s).strip()


LINKY_MIN_LEN = 20
LINKY_DENSITY = 0.6


def render_blocks(el: Element, stats: dict | None = None) -> list[str]:
    """Emit collapsed block texts of a subtree in document order,
    per the pinned spec. Prune non-content subtrees; when ``stats``
    (from _subtree_stats) is given, also prune link-dense block
    children (link_density > 0.6 over ≥ 20 chars — readability-style
    sub-candidate cleaning)."""
    blocks: list[str] = []
    buf: list[str] = []

    def flush():
        if buf:
            text = _collapse("".join(buf))
            buf.clear()
            if text:
                blocks.append(text)

    def collect_text(node) -> str:
        parts: list[str] = []
        for child in node.children:
            if isinstance(child, str):
                parts.append(child)
            elif child.tag == "br":
                parts.append("\n")
            elif child.tag not in PRUNE_TAGS:
                parts.append(collect_text(child))
        return "".join(parts)

    def emit_pre(node):
        # spec amendment: <pre> preserves line structure — each newline-
        # separated line becomes its own block (horizontal whitespace
        # still collapses within a line)
        flush()
        for line in collect_text(node).split("\n"):
            text = _HWS_COLLAPSE_RE.sub(" ", line).strip()
            if text:
                blocks.append(text)

    def is_linky(child) -> bool:
        if stats is None:
            return False
        total, linked = stats.get(id(child), (0, 0))
        return total >= LINKY_MIN_LEN and linked / total > LINKY_DENSITY

    def walk(node):
        for child in node.children:
            if isinstance(child, str):
                buf.append(child)
                continue
            if child.tag in PRUNE_TAGS:
                continue
            if child.tag == "pre":
                emit_pre(child)
            elif child.tag in BLOCK_TAGS:
                if is_linky(child):
                    continue
                flush()
                walk(child)
                flush()
            else:
                walk(child)

    walk(el)
    flush()
    return blocks


def _hint_boost(attrs: dict[str, str]) -> float:
    blob = (attrs.get("class", "") + " " + attrs.get("id", "")).strip()
    if not blob:
        return 1.0
    boost = 1.0
    if _POSITIVE_HINT.search(blob):
        boost *= 1.5
    if _NEGATIVE_HINT.search(blob):
        boost *= 0.25
    return boost


def _subtree_stats(root: Element) -> dict[int, tuple[int, int]]:
    """One post-order pass: id(el) → (text_len, link_text_len) for every
    element (pruned subtrees excluded). Replaces per-candidate recursion
    — scoring was O(candidates × nodes), now O(nodes)."""
    stats: dict[int, tuple[int, int]] = {}

    def walk(el: Element, in_link: bool) -> tuple[int, int]:
        total = linked = 0
        for child in el.children:
            if isinstance(child, str):
                ln = len(_collapse(child))
                total += ln
                if in_link:
                    linked += ln
            elif child.tag not in PRUNE_TAGS:
                t, l = walk(child, in_link or child.tag == "a")
                total += t
                linked += l
        stats[id(el)] = (total, linked)
        return total, linked

    walk(root, root.tag == "a")
    return stats


def select_main_content(root: Element, stats: dict | None = None) -> Element | None:
    """Best-scoring candidate container (document order wins ties)."""
    best: Element | None = None
    best_score = -1.0
    if stats is None:
        stats = _subtree_stats(root)

    def walk(node):
        nonlocal best, best_score
        for child in node.children:
            if isinstance(child, str):
                continue
            if child.tag in PRUNE_TAGS:
                continue
            if child.tag in CANDIDATE_TAGS:
                total, linked = stats.get(id(child), (0, 0))
                if total > 0:
                    link_density = linked / total
                    score = (
                        total
                        * (1.0 - link_density)
                        * _TAG_BOOST.get(child.tag, 1.0)
                        * _hint_boost(child.attrs)
                    )
                    if score > best_score + 1e-9:
                        best, best_score = child, score
            walk(child)

    walk(root)
    return best


def extract_html_text(src: str) -> str:
    """Full path: parse → select main content → prune link-dense
    sub-blocks → render blocks → join.

    Falls back to the whole document's blocks when no candidate scores
    (e.g. a fragment with no container)."""
    root = parse_html(src)
    stats = _subtree_stats(root)
    target = select_main_content(root, stats) or root
    return "\n".join(render_blocks(target, stats))
