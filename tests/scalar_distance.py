"""The scalar point-to-segment distance, kept as the oracle of
``geocore.segment_distances``, which measures points against a whole vertex
chain with the same arithmetic."""
import math


def point_segment_distance(px: float, py: float, ax: float, ay: float,
                           bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def chain_distance(x: float, y: float, coords) -> float:
    """The least point_segment_distance from (x, y) to the segments of the
    vertex chain coords."""
    return min(point_segment_distance(x, y, ax, ay, bx, by)
               for (ax, ay), (bx, by) in zip(coords[:-1], coords[1:]))
