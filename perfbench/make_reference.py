"""Regenerate perfbench/reference_heads.npz, the forward-img canary heads.

    python3 perfbench/make_reference.py

Run it only when the model's intended output changes; a faster kernel must
reproduce the stored heads within workloads.HEAD_RTOL instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from textshaper import dataio, pyramid  # noqa: E402
from workloads import MODEL_SEED, REFERENCE, ForwardImg, render_image  # noqa: E402


def main() -> None:
    spec = pyramid.PyramidSpec()
    stub = pyramid.init_stub_params(MODEL_SEED, channels=spec.channels)
    params = pyramid.init_dsf_params(spec, MODEL_SEED)
    rng = np.random.default_rng(ForwardImg.CANARY_SEED)
    heads = {}
    for size in ForwardImg.slot_kinds:
        image = render_image(rng, size, dataio.synth_maps)
        heads[f"head{size}"] = pyramid.dsf_forward(pyramid.backbone_stub(image, stub),
                                                   params, spec).head
    np.savez(REFERENCE, **heads)
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
