//! Reads the cells a report rendered, row by row and by column name: how
//! the integration tests check an experiment's numbers.

use cdma::core::report::{Cell, Table};

/// One table row, read by column name.
pub struct Record<'a> {
    columns: &'a [String],
    cells: &'a [Cell],
}

/// The rows of `table`.
pub fn records(table: &Table) -> Vec<Record<'_>> {
    table
        .rows()
        .iter()
        .map(|cells| Record {
            columns: table.columns(),
            cells,
        })
        .collect()
}

impl<'a> Record<'a> {
    fn cell(&self, column: &str) -> &'a Cell {
        let i = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.columns));
        &self.cells[i]
    }

    /// A float cell.
    pub fn num(&self, column: &str) -> f64 {
        match self.cell(column) {
            Cell::Num(v) => *v,
            other => panic!("column {column:?} holds {other:?}, not a float"),
        }
    }

    /// A text cell.
    pub fn str(&self, column: &str) -> &'a str {
        match self.cell(column) {
            Cell::Str(s) => s,
            other => panic!("column {column:?} holds {other:?}, not text"),
        }
    }
}
