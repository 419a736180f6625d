//! Mesh-structured computations — the dag family that started the
//! IC-scheduling theory (Rosenberg, *"On scheduling mesh-structured
//! computations for Internet-based computing"*, cited as the paper's
//! \[17\]).
//!
//! The 2-dimensional *evolving mesh*: node `(i, j)` depends on `(i−1, j)`
//! and `(i, j−1)`; the known IC-optimal schedule executes it diagonal by
//! diagonal. These dags exercise the decomposition's repeated
//! detach-a-diagonal behavior and give an independent IC-optimality check
//! for the full pipeline.

use prio_graph::{Dag, DagBuilder, NodeId};

/// A full `rows × cols` 2-D mesh: arcs `(i,j) → (i+1,j)` and
/// `(i,j) → (i,j+1)`.
pub fn mesh2d(rows: usize, cols: usize) -> Dag {
    assert!(rows >= 1 && cols >= 1);
    let mut b = DagBuilder::with_capacity(rows * cols, 2 * rows * cols);
    let mut ids = vec![vec![NodeId(0); cols]; rows];
    for (i, row) in ids.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = b.add_node(format!("m_{i}_{j}"));
        }
    }
    for i in 0..rows {
        for j in 0..cols {
            if i + 1 < rows {
                b.add_arc(ids[i][j], ids[i + 1][j]).expect("down arc");
            }
            if j + 1 < cols {
                b.add_arc(ids[i][j], ids[i][j + 1]).expect("right arc");
            }
        }
    }
    b.build().expect("mesh is acyclic")
}

/// The triangular *evolving mesh* of `levels` diagonals: nodes `(i, j)`
/// with `i + j < levels`, same arcs as [`mesh2d`]. Diagonal `d` holds
/// `d + 1` nodes; total `levels·(levels+1)/2`.
pub fn mesh_triangle(levels: usize) -> Dag {
    assert!(levels >= 1);
    let n = levels * (levels + 1) / 2;
    let mut b = DagBuilder::with_capacity(n, 2 * n);
    let mut ids: Vec<Vec<NodeId>> = Vec::with_capacity(levels);
    for i in 0..levels {
        let width = levels - i;
        let mut row = Vec::with_capacity(width);
        for j in 0..width {
            row.push(b.add_node(format!("t_{i}_{j}")));
        }
        ids.push(row);
    }
    for i in 0..levels {
        for j in 0..ids[i].len() {
            // (i, j) -> (i+1, j) exists when i+1+j < levels.
            if i + 1 < levels && j < ids[i + 1].len() {
                b.add_arc(ids[i][j], ids[i + 1][j]).expect("down arc");
            }
            if j + 1 < ids[i].len() {
                b.add_arc(ids[i][j], ids[i][j + 1]).expect("right arc");
            }
        }
    }
    b.build().expect("triangular mesh is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_shape() {
        let d = mesh2d(3, 4);
        assert_eq!(d.num_nodes(), 12);
        // Arcs: down 2*4 + right 3*3 = 17.
        assert_eq!(d.num_arcs(), 17);
        assert_eq!(d.sources().count(), 1);
        assert_eq!(d.sinks().count(), 1);
        // Interior nodes have two parents.
        let mid = d.find("m_1_1").unwrap();
        assert_eq!(d.in_degree(mid), 2);
    }

    #[test]
    fn triangle_shape() {
        let d = mesh_triangle(4);
        assert_eq!(d.num_nodes(), 10);
        assert_eq!(d.sources().count(), 1);
        // The last anti-diagonal nodes are the sinks.
        assert_eq!(d.sinks().count(), 4);
    }

    #[test]
    fn degenerate_meshes() {
        let line = mesh2d(1, 5);
        assert_eq!(line.num_arcs(), 4);
        let dot = mesh2d(1, 1);
        assert_eq!(dot.num_nodes(), 1);
        assert_eq!(mesh_triangle(1).num_nodes(), 1);
    }
}
