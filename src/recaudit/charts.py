"""Dependency-free static SVG bar charts.

One chart per grouping scheme, three stacked panels: user distribution,
mean NDCG with standard-error whiskers, and the scheme's additive-model
scores.  The significance annotation sits in the title.  Each bar rect
carries a data-value attribute so emitted charts are machine-checkable.
"""

from __future__ import annotations

from typing import Optional, Sequence

PANEL_W = 640
PANEL_H = 150
MARGIN = 52
GAP = 44
LABEL_SPACE = 34


def escape(text: str) -> str:
    """Escape ``&``, ``<``, ``>`` and ``"`` as ``xml.sax.saxutils.escape(text,
    {'"': "&quot;"})`` does, for text and double-quoted attribute values,
    without importing it (it loads ``urllib.request`` and ``ssl``)."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _bar_panel(out: list[str], top: int, title: str, labels: Sequence[str],
               values: Sequence[float], whiskers: Optional[Sequence[float]] = None,
               color: str = "#c23b22") -> None:
    out.append(f'<text x="{MARGIN}" y="{top - 8}" font-size="13" '
               f'font-family="sans-serif">{escape(title)}</text>')
    n = len(values)
    if n == 0:
        return
    finite = [abs(v) for v in values]
    if whiskers is not None:
        finite.extend(abs(v) + (w or 0.0) for v, w in zip(values, whiskers))
    vmax = max(finite) or 1.0
    slot = PANEL_W / n
    bar_w = max(slot * 0.6, 2.0)
    has_negative = any(v < 0 for v in values)
    plot_h = PANEL_H
    baseline = top + (plot_h / 2 if has_negative else plot_h)
    scale = (plot_h / 2 if has_negative else plot_h) / vmax

    out.append(f'<line x1="{MARGIN}" y1="{baseline:.2f}" x2="{MARGIN + PANEL_W}" '
               f'y2="{baseline:.2f}" stroke="#666" stroke-width="1"/>')
    for i, (label, value) in enumerate(zip(labels, values)):
        x = MARGIN + i * slot + (slot - bar_w) / 2
        h = abs(value) * scale
        y = baseline - h if value >= 0 else baseline
        out.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="{color}" data-label="{escape(str(label))}" data-value="{value!r}"/>')
        if whiskers is not None and whiskers[i]:
            cx = x + bar_w / 2
            tip = baseline - h if value >= 0 else baseline + h
            w_half = whiskers[i] * scale
            out.append(f'<line x1="{cx:.2f}" y1="{tip - w_half:.2f}" x2="{cx:.2f}" '
                       f'y2="{tip + w_half:.2f}" stroke="#333" stroke-width="1.5" '
                       f'class="whisker"/>')
        out.append(f'<text x="{MARGIN + i * slot + slot / 2:.2f}" '
                   f'y="{top + PANEL_H + 14}" font-size="10" text-anchor="middle" '
                   f'font-family="sans-serif">{escape(str(label))}</text>')


def render_scheme_chart(scheme: str, labels: Sequence[str], counts: Sequence[int],
                        means: Sequence[float], ses: Sequence[float],
                        ebm_scores: Optional[Sequence[float]],
                        p_annotation: str) -> str:
    """Render one scheme's three-panel chart; returns the SVG document."""
    panels = 3 if ebm_scores is not None else 2
    height = MARGIN + panels * (PANEL_H + LABEL_SPACE + GAP)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{MARGIN * 2 + PANEL_W}" '
        f'height="{height}" viewBox="0 0 {MARGIN * 2 + PANEL_W} {height}">',
        f'<title>{escape(scheme)} ({escape(p_annotation)})</title>',
        f'<text x="{MARGIN}" y="24" font-size="15" font-weight="bold" '
        f'font-family="sans-serif">{escape(scheme)} ({escape(p_annotation)})</text>',
    ]
    top = MARGIN + GAP / 2
    _bar_panel(out, int(top), "users", labels, [float(c) for c in counts])
    top += PANEL_H + LABEL_SPACE + GAP
    _bar_panel(out, int(top), "mean NDCG", labels, means, whiskers=ses)
    if ebm_scores is not None:
        top += PANEL_H + LABEL_SPACE + GAP
        _bar_panel(out, int(top), "EBM score", labels, ebm_scores, color="#555")
    out.append("</svg>")
    return "\n".join(out)
