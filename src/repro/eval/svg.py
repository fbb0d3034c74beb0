"""SVG rendering of route maps (the visual half of Fig. 6).

Produces dependency-free SVG files: one panel per method, locations as
dots coloured by AOI, the route as a polyline starting at the courier
position.  Used by the case-study bench to write viewable artefacts
next to the text tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ..data.entities import RTPInstance
from .case_study import CaseStudy

#: AOI colour cycle (colour-blind-friendly-ish).
_COLORS = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
           "#aa3377", "#bbbbbb", "#999933", "#882255", "#44aa99"]

_PANEL = 260
_MARGIN = 28


def _project(instance: RTPInstance):
    """Map lon/lat to panel-local x/y (y flipped, aspect preserved)."""
    points = np.vstack([instance.location_coords(),
                        [instance.courier_position]])
    low = points.min(axis=0)
    span = points.max(axis=0) - low
    span[span == 0] = 1e-9
    scale = (_PANEL - 2 * _MARGIN) / span.max()

    def project(lon: float, lat: float):
        x = _MARGIN + (lon - low[0]) * scale
        y = _PANEL - _MARGIN - (lat - low[1]) * scale
        return x, y
    return project


def _panel(instance: RTPInstance, route: np.ndarray, title: str,
           offset_x: int) -> str:
    project = _project(instance)
    aoi_of = instance.aoi_index_of_location()
    parts = [f'<g transform="translate({offset_x},0)">']
    parts.append(f'<rect x="1" y="1" width="{_PANEL - 2}" height="{_PANEL - 2}" '
                 'fill="white" stroke="#ddd"/>')
    parts.append(f'<text x="{_PANEL / 2}" y="16" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">{title}</text>')

    # Route polyline: courier position then stops in visit order.
    points = [project(*instance.courier_position)]
    points += [project(*instance.locations[int(i)].coord) for i in route]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    parts.append(f'<polyline points="{path}" fill="none" stroke="#555" '
                 'stroke-width="1.5" stroke-dasharray="none" opacity="0.85"/>')

    # Courier start marker.
    cx, cy = points[0]
    parts.append(f'<rect x="{cx - 4:.1f}" y="{cy - 4:.1f}" width="8" height="8" '
                 'fill="#222"/>')

    # Location dots coloured by AOI, numbered by visit order.
    order = {int(node): position + 1 for position, node in enumerate(route)}
    for i, location in enumerate(instance.locations):
        x, y = project(*location.coord)
        color = _COLORS[aoi_of[i] % len(_COLORS)]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="{color}" '
                     'stroke="#333" stroke-width="0.7"/>')
        parts.append(f'<text x="{x:.1f}" y="{y + 3:.1f}" text-anchor="middle" '
                     f'font-size="8" font-family="sans-serif" fill="white">'
                     f'{order[i]}</text>')
    parts.append("</g>")
    return "\n".join(parts)


def render_case_svg(case: CaseStudy) -> str:
    """One SVG: the true route panel plus one panel per method."""
    panels = [("true route", case.instance.route)]
    panels += [(result.method, result.route) for result in case.results]
    width = _PANEL * len(panels)
    body = [_panel(case.instance, route, title, index * _PANEL)
            for index, (title, route) in enumerate(panels)]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL}" viewBox="0 0 {width} {_PANEL}">\n'
        + "\n".join(body) + "\n</svg>"
    )


def write_case_svgs(cases: Sequence[CaseStudy],
                    directory: Union[str, Path],
                    prefix: str = "case") -> Sequence[Path]:
    """Write one SVG per case study; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, case in enumerate(cases, start=1):
        path = directory / f"{prefix}{index}.svg"
        path.write_text(render_case_svg(case))
        paths.append(path)
    return paths
