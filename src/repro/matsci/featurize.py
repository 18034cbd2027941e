"""Ward-2016 (Magpie) style composition featurization — the matminer stand-in.

The matminer_featurize servable "computes features from the element
fractions" (SS V-A); the served forest "was trained with the features of
Ward et al." Implemented feature families:

* **Stoichiometric attributes** — number of elements and the L2/L3/L5
  p-norms of the fraction vector.
* **Elemental-property statistics** — for each of the 8 elemental
  properties in :mod:`repro.matsci.elements`: fraction-weighted mean,
  average absolute deviation, range, minimum, maximum, and the property of
  the most-abundant element ("mode"), exactly mirroring Magpie's stat set.
* **Valence attributes** — mean valence-electron count and the fraction
  of valence electrons from the most electronegative element (an
  ionic-character proxy).

The resulting vector has a stable documented ordering (:data:`FEATURE_NAMES`).
"""

from __future__ import annotations

import numpy as np

from repro.matsci.composition import Composition
from repro.matsci.elements import PROPERTY_NAMES

_STATS = ("mean", "avg_dev", "range", "min", "max", "mode")

#: Stable feature ordering: stoichiometric, then property stats, then valence.
FEATURE_NAMES: tuple[str, ...] = (
    "NComponents",
    "Norm2",
    "Norm3",
    "Norm5",
    *(f"{prop}_{stat}" for prop in PROPERTY_NAMES for stat in _STATS),
    "MeanValence",
    "MaxIonicChar",
)


class MagpieFeaturizer:
    """Computes the Ward-style feature vector for a composition."""

    def featurize(self, composition: Composition | str) -> np.ndarray:
        """Feature vector for one composition (formula strings accepted)."""
        comp = (
            Composition.parse(composition)
            if isinstance(composition, str)
            else composition
        )
        fracs_map = comp.fractions()
        symbols = list(fracs_map)
        fracs = np.array([fracs_map[s] for s in symbols])
        # Property matrix: rows = elements in composition, cols = properties.
        props = np.array([el.property_vector() for el in comp.elements], dtype=np.float64)
        # comp.elements is sorted by symbol, same as fractions() iteration order
        # (both derive from the sorted amounts tuple).

        features: list[float] = []
        # Stoichiometric attributes.
        features.append(float(comp.n_elements))
        for p in (2, 3, 5):
            features.append(float(np.sum(fracs**p) ** (1.0 / p)))

        # Elemental-property statistics.
        mode_idx = int(np.argmax(fracs))
        for col in range(props.shape[1]):
            values = props[:, col]
            mean = float(np.dot(fracs, values))
            avg_dev = float(np.dot(fracs, np.abs(values - mean)))
            features.extend(
                [
                    mean,
                    avg_dev,
                    float(values.max() - values.min()),
                    float(values.min()),
                    float(values.max()),
                    float(values[mode_idx]),
                ]
            )

        # Valence attributes.
        valences = props[:, PROPERTY_NAMES.index("NValence")]
        electronegativities = props[:, PROPERTY_NAMES.index("Electronegativity")]
        mean_valence = float(np.dot(fracs, valences))
        total_valence = float(np.dot(fracs, valences))
        if total_valence > 0:
            most_en = int(np.argmax(electronegativities))
            ionic = float(fracs[most_en] * valences[most_en] / total_valence)
        else:  # pragma: no cover - all elements have valence >= 1
            ionic = 0.0
        features.append(mean_valence)
        features.append(ionic)

        vector = np.asarray(features, dtype=np.float64)
        assert vector.shape == (len(FEATURE_NAMES),)
        return vector

    def featurize_many(self, compositions: list[Composition | str]) -> np.ndarray:
        """Feature matrix ``(n_compositions, n_features)``."""
        if not compositions:
            return np.empty((0, len(FEATURE_NAMES)))
        return np.vstack([self.featurize(c) for c in compositions])
