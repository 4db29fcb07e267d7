"""Lower and upper bounds of the tree edit distance, plus join filters."""

from .size_bound import cheap_lower_bound, label_multiset_lower_bound, size_lower_bound
from .string_edit import (
    levenshtein,
    postorder_string_lower_bound,
    preorder_string_lower_bound,
    traversal_string_lower_bound,
)
from .binary_branch import (
    binary_branch_distance,
    binary_branch_lower_bound,
    binary_branch_profile,
)
from .upper_bound import top_down_upper_bound, trivial_upper_bound


__all__ = [
    "size_lower_bound",
    "label_multiset_lower_bound",
    "cheap_lower_bound",
    "levenshtein",
    "preorder_string_lower_bound",
    "postorder_string_lower_bound",
    "traversal_string_lower_bound",
    "binary_branch_profile",
    "binary_branch_distance",
    "binary_branch_lower_bound",
    "trivial_upper_bound",
    "top_down_upper_bound",
]
