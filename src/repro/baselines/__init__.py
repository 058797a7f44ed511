"""Competing error-detection methods (§6.1).

Every baseline follows the same protocol as :class:`repro.core.HoloDetect`:
``fit(dataset, training, constraints)`` then ``predict_error_cells(cells)``.
Unsupervised methods ignore ``training``.

- **CV** — flag all cells participating in denial-constraint violations;
- **HC** — a compact HoloClean [55]-style repair engine; flags cells whose
  value the repair step changes;
- **OD** — correlation-based outlier detection over pairwise conditionals;
- **FBI** — forbidden itemsets via the lift measure [50];
- **LR** — supervised logistic regression over co-occurrence + violation
  features;
- **SuperL** — the HoloDetect model trained on T only: ``HoloDetect`` with
  ``augment=False``, the ``superl`` method;
- **SemiL** — self-training semi-supervised variant;
- **ActiveL** — uncertainty-sampling active learning variant;
- **resampling** — minority-class oversampling instead of augmentation;
- the random-channel augmentation ablation (Table 4; the uniform-policy
  one is the ``uniform`` policy component).
"""

from repro.baselines.constraint_violations import ConstraintViolationDetector
from repro.baselines.holoclean import HoloCleanDetector
from repro.baselines.outlier import OutlierDetector
from repro.baselines.forbidden_itemsets import ForbiddenItemsetDetector
from repro.baselines.logistic_regression import LogisticRegressionDetector
from repro.baselines.semi_supervised import SemiSupervisedDetector
from repro.baselines.active_learning import ActiveLearningDetector, GroundTruthOracle
from repro.baselines.resampling import ResamplingDetector
from repro.baselines.augmentation_variants import RandomChannelPolicy
from repro.baselines.adapters import build_method, method_names

__all__ = [
    "build_method",
    "method_names",
    "ConstraintViolationDetector",
    "HoloCleanDetector",
    "OutlierDetector",
    "ForbiddenItemsetDetector",
    "LogisticRegressionDetector",
    "SemiSupervisedDetector",
    "ActiveLearningDetector",
    "GroundTruthOracle",
    "ResamplingDetector",
    "RandomChannelPolicy",
]
