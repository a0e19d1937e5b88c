"""Great-circle geometry helpers."""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers; accepts scalars or arrays."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def nearest_station_order(table, ref_lat: float, ref_lon: float) -> list:
    """All station indices ordered by ascending distance, ties by station id."""
    d = haversine_km(table.lats, table.lons, ref_lat, ref_lon)
    return sorted(range(len(table)), key=lambda i: (d[i], table.ids[i]))
