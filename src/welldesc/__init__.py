"""welldesc: one-class hypersphere classification for imbalanced well-log data."""

from .dataio import (
    HIGH,
    LOW,
    LabeledDataset,
    NormStats,
    SplitPlan,
    SynthConfig,
    WellTable,
    binarize_target,
    drop_invalid,
    gen_synthetic,
    histogram,
    load_table,
    normalize_apply,
    normalize_fit,
    resample_uniform,
    split_leave_one_well_out,
    write_table,
)
from .kernels import ERBF, GAUSSIAN, POLYNOMIAL, KernelSpec, eval_kernel, gram, kernel_row
from .svdd import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    SvddModel,
    SvddTrainConfig,
    decide,
    predict,
    radius2_of,
    train,
)
from .relief import FeatureWeights, relief_weights, select_top
from .baselines import (
    GnbModel,
    LdaModel,
    SvmModel,
    predict_csvm,
    predict_gnb,
    predict_lda,
    svm_decision,
    train_csvm,
    train_gnb,
    train_lda,
)
from .evaluation import (
    ConfusionCounts,
    RunRecord,
    compare_report,
    confusion,
    g_mean,
    sensitivity,
    specificity,
    timed,
)
from .persist import load_model, save_model

__version__ = "0.1.0"
