"""genflow: automated binary / multi-class classification pipelines.

Split a labeled tabular dataset, rank features with filter statistics,
grid-sweep a zoo of classifiers under interleaved cross-validation,
reduce to the accuracy-maximizing top-k feature set, route between flat
multi-class and hierarchical binary classification, and emit metrics,
ROC curves, and accuracy-vs-k reports.
"""

from .dataset import (
    Dataset,
    SplitPair,
    DataError,
    load_dataset,
    stratified_split,
    encode_sign_labels,
)
from .ranking import (
    RankedFeatures,
    fisher_score,
    mutual_information,
    chi_squared,
    mrmr_rank,
    project_top_k,
)
from .models import (
    ModelSpec,
    TrainedModel,
    ModelError,
    fit_model,
    model_from_document,
)
from .selection import (
    FoldPlan,
    SweepResult,
    DimSweepResult,
    make_interleaved_folds,
    sweep_parameters,
    dimensionality_sweep,
)
from .metrics import (
    ConfusionCounts,
    EvalMetrics,
    confusion_counts,
    averaged_metrics,
    roc_and_auc,
    randomized_recall,
)
from .flow import (
    FlowConfig,
    HierarchyLevel,
    HierarchySpec,
    FlowReport,
    decision_route,
    select_best_model,
    combine_level_metrics,
    decision_hierarchy,
    run_flow,
    load_hierarchy_spec,
)
from .report import emit_bundle

__version__ = "0.1.0"
