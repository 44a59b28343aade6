"""Parameters that make each shipped program runnable in a test."""

#: Free parameters besides ``steps``, with safe values.
_EXTRA_PARAMS: dict[str, dict[str, int]] = {
    "grid_stencil_2d": {"px": 2},
}


def default_params(name: str, steps: int = 3) -> dict[str, int]:
    """Parameters making the shipped program *name* runnable.

    Always includes ``steps``; programs with additional free parameters
    (e.g. the 2-D stencil's grid width ``px``) get safe defaults.
    """
    return {"steps": steps, **_EXTRA_PARAMS.get(name, {})}
