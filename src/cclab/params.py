"""The one check of experiment and witness params, and the one gate record."""

import operator
from dataclasses import dataclass

__all__ = ["Check", "ConfigError", "RELATIONS", "checked_params", "needs",
           "real", "verdict_of"]

# JSON gives lists for tuples, and an int is a valid float
_LOOSE = {tuple: (tuple, list), list: (tuple, list), float: (int, float)}
# `measured relation bound` of a gate (Check) or a rule (needs)
RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
             ">": operator.gt, "in": lambda v, c: v in c}


@dataclass(frozen=True)
class Check:
    """One gate: `measured relation bound`, over `items` rows, fields, trials
    or cases (1 for a single value; 0 when there was nothing to check)."""
    name: str
    measured: object
    bound: object
    relation: str = "<="
    items: int = 1

    @property
    def ok(self):
        return bool(RELATIONS[self.relation](self.measured, self.bound))

    @property
    def margin(self):
        if self.relation == "<=":
            return self.bound - self.measured
        if self.relation == ">=":
            return self.measured - self.bound
        return None


def verdict_of(checks):
    """fail if any check fails; else inconclusive if nothing was checked (no
    checks, or a check over zero items); else pass."""
    if not all(c.ok for c in checks):
        return "fail"
    if not checks or any(c.items == 0 for c in checks):
        return "inconclusive"
    return "pass"


class ConfigError(ValueError):
    pass


def real(v):
    """Whether v is an int or a float (a bool is never a number)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def needs(key, relation, bound):
    """The rule that param key is `relation` (>, >= or in) bound."""
    return (lambda p: RELATIONS[relation](p[key], bound),
            f"needs {key} {relation} {bound}, got {key}={{{key}!r}}")


def checked_params(owner, defaults, params, rules, routes):
    """The defaults updated with params, else a ConfigError that names the
    param.  owner declares defaults, whose types the params take (a None
    default takes any value, for the rules to judge); rules, (holds(p),
    message) pairs on the merged p, the message a format string of p or a
    function of it, shown after owner's name; and routes, {route param:
    {value: params that route never reads}}."""
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown params for {owner}: {unknown}")
    for key, value in params.items():
        want = _LOOSE.get(type(defaults[key]), (type(defaults[key]),))
        if defaults[key] is not None and (not isinstance(value, want) or (
                isinstance(value, bool) and bool not in want)):
            names = " or ".join(t.__name__ for t in want)
            raise ConfigError(f"param {key!r} of {owner} expects {names}, "
                              f"got {value!r}")
    p = {**defaults, **params}
    for holds, message in rules:
        if not holds(p):
            raise ConfigError(f"{owner} " + (message(p) if callable(message)
                                             else message.format(**p)))
    for route, unread in routes.items():
        idle = sorted(set(params) & set(unread.get(p[route], ())))
        if idle:
            raise ConfigError(f"{owner} {route} {p[route]!r} never reads "
                              f"{idle}")
    return p
