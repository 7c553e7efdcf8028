"""Reading a library component's positional metadata by field name."""


def meta_fields(component, meta):
    """``meta`` as ``{name: value}``, in ``component.spec.meta_fields`` order."""
    names = [field.name for field in component.spec.meta_fields]
    assert len(meta) == len(names), (meta, names)
    return dict(zip(names, meta))
