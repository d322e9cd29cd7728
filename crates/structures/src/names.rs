//! Name tables: the display names of a structure's elements, which are
//! the variable names of a query whose tableau it is.

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// A table of names, `0..len()`: one text buffer holding every name back
/// to back, and where each ends. A table of any size is two buffers, and
/// a query shares it with its tableau by [`Arc`](std::sync::Arc).
///
/// # Examples
///
/// ```
/// use cqapx_structures::Names;
///
/// let mut names = Names::with_capacity(2, 3);
/// names.push("x");
/// names.push(format_args!("y{}", 1));
/// assert_eq!((names.len(), names.get(1)), (2, "y1"));
/// assert!(names.iter().eq(["x", "y1"]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    /// An empty table with room for `names` names of `bytes` bytes in
    /// all: pushing that many grows no buffer.
    pub fn with_capacity(names: usize, bytes: usize) -> Names {
        Names {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
        }
    }

    /// Appends a name, written by its `Display`: a `&str`, or
    /// `format_args!` to write one with no buffer of its own.
    pub fn push(&mut self, name: impl fmt::Display) {
        write!(self.text, "{name}").expect("writing to a String cannot fail");
        self.ends
            .push(u32::try_from(self.text.len()).expect("names under 4 GiB"));
    }

    /// The number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Name `i`.
    pub fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// The names, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl<S: fmt::Display> FromIterator<S> for Names {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Names {
        let mut table = Names::default();
        names.into_iter().for_each(|name| table.push(name));
        table
    }
}
